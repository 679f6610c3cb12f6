// Package core implements the simulated cluster machine: uniprocessor
// nodes with P6-like memory hierarchies connected by the parameterized
// communication layer, running a software shared-memory protocol and an
// application written against the Thread API.  It is the paper's
// execution-driven simulator: application code really executes, and the
// machine attributes every simulated cycle of every processor to a
// breakdown category.
package core

import (
	"fmt"
	"math"

	"swsm/internal/cache"
	"swsm/internal/comm"
	"swsm/internal/consistency"
	"swsm/internal/fault"
	"swsm/internal/hetero"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/sim"
	"swsm/internal/stats"
	"swsm/internal/trace"
)

// Config assembles one machine configuration: the communication-layer
// and protocol-layer cost parameters plus structural choices.
type Config struct {
	// Procs is the number of uniprocessor nodes (the paper studies 16).
	Procs int
	// MemLimit bounds the shared address space in bytes.
	MemLimit int64
	// Comm is the communication parameter set (Table 2).
	Comm comm.Params
	// Costs is the protocol cost set (Table 3).
	Costs proto.Costs
	// Cache configures the node memory hierarchy; CacheEnabled false
	// removes cache-stall modeling entirely.
	Cache        cache.Config
	CacheEnabled bool
	// PollQuantum is the back-edge polling granularity: the longest run
	// of busy cycles a thread executes before materializing time and
	// draining pending message handlers.
	PollQuantum int64
	// SharedMem makes all nodes address node 0's memory (the ideal,
	// hardware-coherent machine used for algorithmic speedups and the
	// sequential baseline).
	SharedMem bool
	// DisablePlacement ignores Machine.Place calls, leaving all homes
	// round-robin (the home-placement ablation).
	DisablePlacement bool
	// NoProtocolPollution stops protocol data movement from touching the
	// caches (the cache-pollution ablation).
	NoProtocolPollution bool
	// AccessInstrCycles charges extra busy cycles on every shared
	// load/store, modeling Shasta-style software access-control
	// instrumentation (zero = the paper's free-hardware assumption).
	AccessInstrCycles int64
	// Fault configures deterministic fault injection.  When enabled the
	// machine routes every protocol message through the reliable
	// transport (sequence numbers, acks, retransmission); the zero value
	// keeps the paper's perfectly reliable fabric and the plain network
	// path, untouched.
	Fault fault.Spec
	// Hetero configures the per-node machine models: CPU speed
	// multipliers on compute cycles, accelerator-style protocol-cost
	// multipliers, and per-node asymmetric communication parameters.
	// The zero value is the paper's uniform machine and keeps every
	// fast path untouched.  (The adaptive placement policies in the
	// same spec are consumed by the protocol layer, not here.)
	Hetero hetero.Spec
	// Tracer enables the observability layer when non-nil: typed event
	// tracing, interval breakdown sampling, and hot-object profiling.
	// Nil (the default) keeps every hook a no-op on the hot paths.
	Tracer *trace.Tracer
	// Check enables the consistency conformance recorder when non-nil:
	// every shared reference and sync operation is recorded for a
	// post-run happens-before check.  Nil (the default) keeps the hooks
	// free on the hot paths, like Tracer.
	Check *consistency.Recorder
}

// DefaultConfig is the paper's base system: 16 processors, achievable
// communication parameters, original protocol costs, P6-like caches.
func DefaultConfig() Config {
	return Config{
		Procs:        16,
		MemLimit:     64 << 20,
		Comm:         comm.Achievable(),
		Costs:        proto.OriginalCosts(),
		Cache:        cache.DefaultConfig(),
		CacheEnabled: true,
		PollQuantum:  1000,
	}
}

// Node is one uniprocessor cluster node.
type Node struct {
	ID    int
	Mem   *mem.NodeMem
	Cache *cache.Cache

	thread *Thread
	// cpuFreeAt tracks processor occupancy by asynchronous handlers that
	// ran while the application thread was idle (blocked waiting).
	cpuFreeAt sim.Time
	// idle is true while the thread is blocked or finished, allowing
	// handlers to run immediately instead of waiting for a poll.
	idle bool
	// pendingH queues handler messages that arrived while the thread was
	// executing; they run at its next poll point.
	pendingH []*comm.Message
}

// Machine is the simulated cluster.
type Machine struct {
	Cfg Config
	Eng *sim.Engine
	Net *comm.Network
	// RNet is the reliable transport wrapping Net; nil unless
	// Cfg.Fault.Enabled().  When present, all machine sends route
	// through it (its zero-injection path delegates straight to Net).
	RNet  *comm.ReliableNetwork
	Stats *stats.Machine
	Prot  proto.Protocol
	Nodes []*Node

	arena  *mem.Arena
	finish []sim.Time
	ran    bool
	// pendBuf is the struct-of-arrays backing for every thread's pending
	// ledger: Procs contiguous windows of stats.NumCategories counters,
	// so the hottest per-reference state lives in one block instead of
	// scattered across Thread allocations.
	pendBuf []int64
	// live counts application threads that have not finished; the
	// breakdown sampler keeps rescheduling itself only while live > 0 so
	// the event queue can drain and Run can terminate.
	live int

	// nodeSpecs holds the resolved per-node machine models; nil on the
	// uniform machine, so every heterogeneity check is one nil test.
	nodeSpecs []hetero.NodeSpec
	// nodeComm holds per-node communication parameters when any link is
	// asymmetric (mirrors the network's endpoint build); nil otherwise.
	nodeComm []comm.Params
}

// NewMachine builds a cluster running the given protocol.  The protocol
// is attached to the machine's environment before return.
func NewMachine(cfg Config, p proto.Protocol) *Machine {
	if cfg.Procs <= 0 {
		panic("core: config needs at least one processor")
	}
	if cfg.MemLimit <= 0 {
		cfg.MemLimit = 64 << 20
	}
	if cfg.PollQuantum <= 0 {
		cfg.PollQuantum = 1000
	}
	eng := sim.NewEngine()
	m := &Machine{
		Cfg:    cfg,
		Eng:    eng,
		Stats:  stats.New(cfg.Procs),
		Prot:   p,
		Nodes:  make([]*Node, cfg.Procs),
		finish: make([]sim.Time, cfg.Procs),
	}
	if cfg.Hetero.ModelActive() {
		if err := cfg.Hetero.Validate(); err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		m.nodeSpecs = make([]hetero.NodeSpec, cfg.Procs)
		asymLinks := false
		for i := range m.nodeSpecs {
			ns := cfg.Hetero.Node(i)
			m.nodeSpecs[i] = ns
			if ns.LinkNum != ns.LinkDen {
				asymLinks = true
			}
		}
		if asymLinks {
			m.nodeComm = make([]comm.Params, cfg.Procs)
			for i, ns := range m.nodeSpecs {
				m.nodeComm[i] = cfg.Comm.Scale(ns.LinkNum, ns.LinkDen)
			}
		}
	}
	m.Net = comm.NewNetworkPerNode(eng, cfg.Procs, cfg.Comm, m.nodeComm)
	for i := range m.Nodes {
		n := &Node{ID: i, Mem: mem.NewNodeMem(cfg.MemLimit)}
		if cfg.CacheEnabled {
			n.Cache = cache.New(cfg.Cache)
		}
		m.Nodes[i] = n
	}
	m.arena = mem.NewArena(mem.PageSize, cfg.MemLimit) // keep page 0 unused
	m.Net.Dispatch = m.dispatch
	if cfg.Fault.Enabled() {
		m.RNet = comm.NewReliableNetwork(m.Net, cfg.Fault, comm.DefaultReliableParams())
	}
	eng.SetTracer(cfg.Tracer)
	p.Attach(m)
	return m
}

// Release hands every node's cache arrays and memory frames back for a
// later machine to reuse, then drops them from the nodes, so that a use
// after Release panics instead of reading another run's data.  Call it
// once the run's results have been read out.
func (m *Machine) Release() {
	for _, n := range m.Nodes {
		if n.Cache != nil {
			n.Cache.Release()
			n.Cache = nil
		}
		n.Mem.Release()
		n.Mem = nil
	}
}

// netSend routes a message through the reliable transport when fault
// injection is on, and straight to the plain network otherwise.
func (m *Machine) netSend(msg *comm.Message) {
	if m.RNet != nil {
		m.RNet.Send(msg)
		return
	}
	m.Net.Send(msg)
}

// Alloc reserves shared address space (see mem.Arena.Alloc).
func (m *Machine) Alloc(size, align int64) int64 { return m.arena.Alloc(size, align) }

// AllocPage reserves page-aligned shared address space.
func (m *Machine) AllocPage(size int64) int64 { return m.arena.AllocPage(size) }

// InitF64 initializes a shared double before the parallel phase.
func (m *Machine) InitF64(a int64, v float64) {
	u := math.Float64bits(v)
	m.Prot.InitWrite(a, uint32(u))
	m.Prot.InitWrite(a+4, uint32(u>>32))
	m.Cfg.Check.Init(a, 8, u)
}

// InitWord initializes a shared 32-bit word before the parallel phase.
func (m *Machine) InitWord(a int64, v uint32) {
	m.Prot.InitWrite(a, v)
	m.Cfg.Check.Init(a, 4, uint64(v))
}

// ReadResultF64 reads the authoritative value of a shared double after
// Run (for verification).
func (m *Machine) ReadResultF64(a int64) float64 {
	lo := uint64(m.Prot.ReadCoherent(a))
	hi := uint64(m.Prot.ReadCoherent(a + 4))
	return math.Float64frombits(lo | hi<<32)
}

// ReadResultWord reads the authoritative value of a shared word after Run.
func (m *Machine) ReadResultWord(a int64) uint32 { return m.Prot.ReadCoherent(a) }

// Run executes body on every processor (SPMD style) and returns the
// parallel execution time in cycles.  It may be called once per machine.
func (m *Machine) Run(body func(t *Thread)) (sim.Time, error) {
	if m.ran {
		return 0, fmt.Errorf("core: machine already ran")
	}
	m.ran = true
	m.live = len(m.Nodes)
	nc := int(stats.NumCategories)
	m.pendBuf = make([]int64, len(m.Nodes)*nc)
	for i := range m.Nodes {
		n := m.Nodes[i]
		t := newThread(m, n, m.pendBuf[i*nc:(i+1)*nc:(i+1)*nc])
		n.thread = t
		m.Eng.Spawn(fmt.Sprintf("proc%d", i), 0, func(co *sim.Coro) {
			t.co = co
			body(t)
			m.Prot.Finalize(t)
			t.sync()
			m.finish[n.ID] = co.Now()
			n.idle = true
			m.live--
		})
	}
	m.startSampler()
	if _, err := m.Eng.Run(); err != nil {
		return 0, err
	}
	var end sim.Time
	for _, f := range m.finish {
		if f > end {
			end = f
		}
	}
	m.Stats.ExecCycles = end
	// Final snapshot so the last partial interval is not lost; collapses
	// with a periodic snapshot that landed on the same cycle.
	m.Cfg.Tracer.SampleNow(end, m.Stats)
	if m.Cfg.CacheEnabled {
		for i, n := range m.Nodes {
			m.Stats.Inc(i, stats.L1Misses, n.Cache.L1Misses)
			m.Stats.Inc(i, stats.L2Misses, n.Cache.L2Misses)
		}
	}
	if m.RNet != nil {
		for i := range m.Nodes {
			m.Stats.Inc(i, stats.Retransmits, m.RNet.RetransmitsFrom(i))
			m.Stats.Inc(i, stats.MsgsDropped, m.RNet.DropsFrom(i))
			m.Stats.Inc(i, stats.AcksSent, m.RNet.AcksFrom(i))
			m.Stats.Inc(i, stats.DupsSuppressed, m.RNet.DupsSuppressedAt(i))
		}
	}
	return end, nil
}

// startSampler arms the interval breakdown sampler: a self-rescheduling
// simulation event that snapshots per-category cycle deltas every
// SampleEvery cycles.  It stops rescheduling once every application
// thread has finished, so the engine's event queue can drain.
func (m *Machine) startSampler() {
	s := m.Cfg.Tracer.Sampler()
	if s == nil || s.Every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		s.Snapshot(m.Eng.Now(), m.Stats)
		if m.live > 0 {
			m.Eng.After(s.Every, tick)
		}
	}
	m.Eng.After(s.Every, tick)
}

// dispatch receives protocol request messages from the network.
func (m *Machine) dispatch(msg *comm.Message, now sim.Time) {
	n := m.Nodes[msg.Dst]
	m.Cfg.Tracer.MsgRecv(now, int32(msg.Dst), int64(msg.Kind), int64(msg.Src))
	if n.idle {
		m.runHandler(n, msg)
		return
	}
	n.pendingH = append(n.pendingH, msg)
}

// runHandler executes a protocol handler in engine context while the
// node's thread is idle, occupying the node CPU.
func (m *Machine) runHandler(n *Node, msg *comm.Message) {
	now := m.Eng.Now()
	start := now
	if n.cpuFreeAt > start {
		start = n.cpuFreeAt
	}
	h := &handlerCtx{m: m, node: n.ID}
	body := m.Prot.Handle(h, msg)
	cost := m.handlerCost(n.ID, body, len(h.sends))
	end := start + cost
	n.cpuFreeAt = end
	m.Stats.Inc(n.ID, stats.MsgsHandled, 1)
	m.Stats.AddHandlerBody(n.ID, cost)
	m.Cfg.Tracer.Handler(start, end, int32(n.ID), int64(msg.Kind))
	sends := h.sends
	if len(sends) > 0 {
		m.Eng.At(end, func() {
			for _, s := range sends {
				m.netSend(s)
			}
		})
	}
}

// handlerCost prices one handled protocol message on a node: dispatch
// (message handling) plus handler body, both run by the node's
// processor — so a heterogeneous node's protocol-cycle multiplier
// scales them — plus the per-send host overhead at that node's
// communication parameters.
func (m *Machine) handlerCost(node int, body int64, sends int) int64 {
	mh, ho := m.Cfg.Comm.MsgHandling, m.Cfg.Comm.HostOverhead
	if m.nodeComm != nil {
		p := m.nodeComm[node]
		mh, ho = p.MsgHandling, p.HostOverhead
	}
	cost := mh + body
	if m.nodeSpecs != nil {
		ns := m.nodeSpecs[node]
		if ns.ProtoNum != ns.ProtoDen {
			cost = cost * ns.ProtoNum / ns.ProtoDen
		}
	}
	return cost + ho*int64(sends)
}

// handlerCtx implements proto.HandlerCtx.
type handlerCtx struct {
	m     *Machine
	node  int
	sends []*comm.Message
}

func (h *handlerCtx) Node() int            { return h.node }
func (h *handlerCtx) Env() proto.Env       { return h.m }
func (h *handlerCtx) Send(m *comm.Message) { h.sends = append(h.sends, m) }

// --- proto.Env implementation ---

// NumProcs reports the processor count.
func (m *Machine) NumProcs() int { return m.Cfg.Procs }

// Now reports current virtual time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// NodeMem returns node i's memory.
func (m *Machine) NodeMem(i int) *mem.NodeMem { return m.Nodes[i].Mem }

// Metrics returns the statistics record (proto.Env).
func (m *Machine) Metrics() *stats.Machine { return m.Stats }

// Send injects a message into the network.
func (m *Machine) Send(msg *comm.Message) {
	m.Stats.Inc(msg.Src, stats.MsgsSent, 1)
	m.Stats.Inc(msg.Src, stats.BytesSent, msg.Size+comm.HeaderBytes)
	m.Cfg.Tracer.MsgSend(m.Eng.Now(), int32(msg.Src), int64(msg.Kind), msg.Size+comm.HeaderBytes)
	m.netSend(msg)
}

// CacheTouch models protocol-induced cache pollution on node i.
func (m *Machine) CacheTouch(node int, addr int64, size int, write bool) int64 {
	n := m.Nodes[node]
	if n.Cache == nil || m.Cfg.NoProtocolPollution {
		return 0
	}
	return n.Cache.Touch(addr, size, write)
}

// CacheInvalidate drops a range from node i's cache.
func (m *Machine) CacheInvalidate(node int, addr int64, size int) {
	n := m.Nodes[node]
	if n.Cache != nil {
		n.Cache.InvalidateRange(addr, size)
	}
}

// WakeThread unblocks node i's thread.  The node stops being idle at
// the instant of the wake: a protocol message delivered at the same
// cycle must queue for the thread's next poll rather than run while the
// thread is conceptually already resuming (otherwise a same-cycle recall
// could slip between an access grant and the data operation it granted).
func (m *Machine) WakeThread(node int) {
	n := m.Nodes[node]
	t := n.thread
	if t == nil || t.co == nil {
		panic(fmt.Sprintf("core: waking node %d with no thread", node))
	}
	n.idle = false
	t.co.Wake()
}

// Schedule runs fn after d cycles.
func (m *Machine) Schedule(d sim.Time, fn func()) { m.Eng.After(d, fn) }

// Tracer returns the observability tracer (proto.Env); nil when off.
func (m *Machine) Tracer() *trace.Tracer { return m.Cfg.Tracer }

var _ proto.Env = (*Machine)(nil)

// HomePlacer is implemented by protocols that support explicit data
// placement (HLRC and SC); the ideal machine has no notion of homes.
type HomePlacer interface {
	AssignHome(addr, size int64, node int)
}

// Place assigns the authoritative home of [addr, addr+size) to node, if
// the protocol supports placement.  Applications use it to express the
// SPLASH-2 data distribution; on the ideal machine it is a no-op.
func (m *Machine) Place(addr, size int64, node int) {
	if m.Cfg.DisablePlacement {
		return
	}
	if hp, ok := m.Prot.(HomePlacer); ok {
		hp.AssignHome(addr, size, node%m.Cfg.Procs)
	}
}
