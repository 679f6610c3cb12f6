package core

import (
	"math"

	"swsm/internal/comm"
	"swsm/internal/consistency"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/sim"
	"swsm/internal/stats"
)

// Thread is one application thread, pinned to its node's processor
// (uniprocessor nodes).  It exposes the shared-address-space programming
// model: loads and stores against simulated shared memory, explicit
// compute-cycle charging, and acquire/release/barrier synchronization.
//
// Time accounting uses the paper's polling model: busy and local-stall
// cycles accumulate in a pending ledger and are materialized (yielding to
// the simulation engine, then draining any queued protocol handlers — a
// back-edge poll) at synchronization operations, remote operations, and
// at least every PollQuantum cycles.
type Thread struct {
	m    *Machine
	node *Node
	co   *sim.Coro

	// Hot-path state, flattened.  The pending ledger is this thread's
	// window into the machine-owned backing array (struct-of-arrays
	// across threads: one contiguous block instead of a counter array
	// inside every Thread), and the per-access constants are resolved
	// once at construction so tick/pre never chase Cfg pointers.
	pending      []int64 // len stats.NumCategories, machine-owned backing
	pendingTotal int64
	mem          *mem.NodeMem // data target: node-local, or node 0 when SharedMem
	quantum      int64        // Cfg.PollQuantum
	accessInstr  int64        // 1 + Cfg.AccessInstrCycles
	memLimit     int64        // Cfg.MemLimit

	// Load/store counts accumulate thread-locally and flush to the
	// stats machine at sync points, like the pending time ledger (the
	// counters are only read after the run, so lazy flushing is
	// invisible).
	loads, stores int64

	// chk caches Cfg.Check so the per-access path can skip the recorder
	// call entirely when conformance checking is off (the common case).
	chk *consistency.Recorder

	// Access-check fast path (proto.TableProtocol): acc[addr>>accShift]
	// holds the coherence-unit mode in the uniform 0/1/2 encoding, and a
	// granted check skips the protocol Access call entirely.  accFree
	// marks hardware-coherent protocols whose Access is a no-op.
	acc      []uint8
	accShift uint
	accFree  bool

	// Per-node heterogeneity, resolved at construction: compute and
	// protocol cycle multipliers (1/1 on the uniform machine) and this
	// node's send overhead (the base value unless links are asymmetric),
	// replacing the former direct Cfg.Comm read so a slow endpoint's
	// software costs follow its NI.
	compNum, compDen   int64
	protoNum, protoDen int64
	hostOverhead       int64
}

func newThread(m *Machine, n *Node, ledger []int64) *Thread {
	t := &Thread{
		m:           m,
		node:        n,
		pending:     ledger,
		mem:         n.Mem,
		quantum:     m.Cfg.PollQuantum,
		accessInstr: 1 + m.Cfg.AccessInstrCycles,
		memLimit:    m.Cfg.MemLimit,
		chk:         m.Cfg.Check,

		compNum: 1, compDen: 1, protoNum: 1, protoDen: 1,
		hostOverhead: m.Cfg.Comm.HostOverhead,
	}
	if m.nodeSpecs != nil {
		ns := m.nodeSpecs[n.ID]
		t.compNum, t.compDen = ns.CompNum, ns.CompDen
		t.protoNum, t.protoDen = ns.ProtoNum, ns.ProtoDen
	}
	if m.nodeComm != nil {
		t.hostOverhead = m.nodeComm[n.ID].HostOverhead
	}
	if m.Cfg.SharedMem {
		t.mem = m.Nodes[0].Mem
	}
	if tp, ok := m.Prot.(proto.TableProtocol); ok {
		t.acc, t.accShift = tp.AccessTable(n.ID)
	}
	if _, ok := m.Prot.(proto.FreeAccessProtocol); ok {
		t.accFree = true
	}
	return t
}

// Proc reports this thread's processor id.
func (t *Thread) Proc() int { return t.node.ID }

// NumProcs reports the machine size.
func (t *Thread) NumProcs() int { return t.m.Cfg.Procs }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Env returns the protocol environment (the machine).
func (t *Thread) Env() proto.Env { return t.m }

// Now reports the thread's current virtual time, including pending
// unmaterialized cycles.
func (t *Thread) Now() sim.Time { return t.co.Now() + t.pendingTotal }

// tick accrues cycles in the pending ledger, materializing at the poll
// quantum or whenever handlers are waiting.
func (t *Thread) tick(cat stats.Category, cycles int64) {
	if cycles <= 0 {
		return
	}
	t.pending[cat] += cycles
	t.pendingTotal += cycles
	if t.pendingTotal >= t.quantum || len(t.node.pendingH) > 0 {
		t.sync()
	}
}

// sync materializes pending time and polls for queued protocol handlers,
// running them inline on this processor (charged to the Handler
// category), exactly as instrumentation-based back-edge polling would.
func (t *Thread) sync() {
	if t.loads != 0 {
		t.m.Stats.Inc(t.node.ID, stats.Loads, t.loads)
		t.loads = 0
	}
	if t.stores != 0 {
		t.m.Stats.Inc(t.node.ID, stats.Stores, t.stores)
		t.stores = 0
	}
	if t.pendingTotal > 0 {
		total := t.pendingTotal
		for c, v := range t.pending {
			if v != 0 {
				t.m.Stats.Add(t.node.ID, stats.Category(c), v)
				t.pending[c] = 0
			}
		}
		t.pendingTotal = 0
		t.co.Sleep(total)
	}
	t.drainHandlers()
}

// drainHandlers runs queued handler messages inline (a successful poll).
func (t *Thread) drainHandlers() {
	n := t.node
	for len(n.pendingH) > 0 {
		msg := n.pendingH[0]
		n.pendingH = n.pendingH[1:]
		h := &handlerCtx{m: t.m, node: n.ID}
		body := t.m.Prot.Handle(h, msg)
		cost := t.m.handlerCost(n.ID, body, len(h.sends))
		t.m.Stats.Inc(n.ID, stats.MsgsHandled, 1)
		t.m.Stats.AddHandlerBody(n.ID, cost)
		t.m.Stats.Add(n.ID, stats.Handler, cost)
		start := t.co.Now()
		if cost > 0 {
			t.co.Sleep(cost)
		}
		t.m.Cfg.Tracer.Handler(start, start+cost, int32(n.ID), int64(msg.Kind))
		for _, s := range h.sends {
			t.m.Send(s)
		}
	}
}

// Charge advances this thread's time by `cycles` attributed to cat
// (protocol fault paths use this; it materializes immediately).  On a
// heterogeneous node, protocol-software cycles scale by the node's
// protocol multiplier — an accelerator-style node computes fast but
// pays dearly for every fault, diff and twin.
func (t *Thread) Charge(cat stats.Category, cycles int64) {
	if cat == stats.Protocol && t.protoNum != t.protoDen {
		cycles = cycles * t.protoNum / t.protoDen
	}
	if cycles <= 0 {
		return
	}
	t.sync()
	t.m.Stats.Add(t.node.ID, cat, cycles)
	t.co.Sleep(cycles)
	t.drainHandlers()
}

// Send charges the host overhead to cat and injects m into the network.
func (t *Thread) Send(cat stats.Category, m *comm.Message) {
	t.sync()
	if o := t.hostOverhead; o > 0 {
		t.m.Stats.Add(t.node.ID, cat, o)
		t.co.Sleep(o)
	}
	t.m.Send(m)
}

// BlockFor suspends the thread until the protocol wakes it, attributing
// the elapsed wait to cat.  Handlers arriving while blocked run
// immediately (the processor is idle); the thread resumes only when the
// processor frees up.
func (t *Thread) BlockFor(cat stats.Category) {
	t.sync()
	n := t.node
	start := t.co.Now()
	n.idle = true
	t.co.Block()
	n.idle = false
	if n.cpuFreeAt > t.co.Now() {
		t.co.SleepUntil(n.cpuFreeAt)
	}
	t.m.Stats.Add(n.ID, cat, t.co.Now()-start)
	t.drainHandlers()
}

var _ proto.Thread = (*Thread)(nil)

// Compute charges busy cycles of pure computation (the 1-IPC model's
// instruction time for work between shared-memory references).  A
// heterogeneous node's CPU speed multiplier applies here, in the
// time-quantum batching: cycles are the uniform 200 MHz processor's,
// scaled once on entry so a 2x-slower node takes twice as long.  (The
// fixed per-reference instruction slot in pre() stays at one cycle —
// shared references are dominated by the protocol/memory system, whose
// costs scale through their own multipliers.)
func (t *Thread) Compute(cycles int64) {
	if t.compNum != t.compDen {
		cycles = cycles * t.compNum / t.compDen
	}
	q := t.quantum
	for cycles > 0 {
		step := cycles
		if step > q {
			step = q
		}
		t.tick(stats.Busy, step)
		cycles -= step
	}
}

// pre performs the timing work that must precede the data operation of
// one shared reference: one busy cycle (a poll point) and the protocol
// access check, which may fault and block.  The caller must perform the
// data operation immediately after pre returns — before post — because
// protocol handlers (a recall, an invalidation) may run at the next poll
// point and the granted access right is only guaranteed at this instant.
func (t *Thread) pre(addr int64, size int, write bool) {
	if addr < 0 || addr+int64(size) > t.memLimit {
		panic(&AccessError{
			Proc: t.node.ID, Addr: addr, Size: size, Cycle: t.Now(), Write: write,
		})
	}
	if write {
		t.stores++
	} else {
		t.loads++
	}
	// tick(stats.Busy, t.accessInstr), open-coded: this is the hottest
	// line in the simulator (once per shared reference).
	t.pending[stats.Busy] += t.accessInstr
	t.pendingTotal += t.accessInstr
	if t.pendingTotal >= t.quantum || len(t.node.pendingH) > 0 {
		t.sync()
	}
	if t.acc != nil {
		if t.accGranted(addr, size, write) {
			return
		}
	} else if t.accFree {
		return
	}
	t.m.Prot.Access(t, addr, size, write)
}

// accGranted consults the protocol's exported access table; a granted
// check is exactly equivalent to Prot.Access returning without protocol
// activity.  Any denial falls back to the full (fault) path.
func (t *Thread) accGranted(addr int64, size int, write bool) bool {
	first := addr >> t.accShift
	last := (addr + int64(size) - 1) >> t.accShift
	for u := first; u <= last; u++ {
		m := t.acc[u]
		if write {
			if m != proto.TableWrite {
				return false
			}
		} else if m == proto.TableInvalid {
			return false
		}
	}
	return true
}

// post records the reference for the conformance checker and charges the
// node cache model.  val is the raw value stored or observed, recorded
// before cache stall time accrues so the checker sees the data
// operation's own instant.
func (t *Thread) post(addr int64, size int, write bool, val uint64) {
	if t.chk != nil {
		t.chk.Access(int32(t.node.ID), addr, size, write, val, t.Now())
	}
	if c := t.node.Cache; c != nil && !c.HitMRU(addr, size, write) {
		stall, _, _ := c.Access(addr, size, write)
		if stall > 0 {
			// tick(stats.CacheStall, stall), open-coded.
			t.pending[stats.CacheStall] += stall
			t.pendingTotal += stall
			if t.pendingTotal >= t.quantum || len(t.node.pendingH) > 0 {
				t.sync()
			}
		}
	}
}

// Load32 loads a shared 32-bit word.
func (t *Thread) Load32(a int64) uint32 {
	t.pre(a, 4, false)
	v := t.mem.ReadWord(a)
	t.post(a, 4, false, uint64(v))
	return v
}

// Store32 stores a shared 32-bit word.
func (t *Thread) Store32(a int64, v uint32) {
	t.pre(a, 4, true)
	t.mem.WriteWord(a, v)
	t.post(a, 4, true, uint64(v))
}

// LoadI32 loads a shared int32.
func (t *Thread) LoadI32(a int64) int32 { return int32(t.Load32(a)) }

// StoreI32 stores a shared int32.
func (t *Thread) StoreI32(a int64, v int32) { t.Store32(a, uint32(v)) }

// LoadF64 loads a shared float64.
func (t *Thread) LoadF64(a int64) float64 {
	t.pre(a, 8, false)
	v := t.mem.ReadF64(a)
	t.post(a, 8, false, math.Float64bits(v))
	return v
}

// StoreF64 stores a shared float64.
func (t *Thread) StoreF64(a int64, v float64) {
	t.pre(a, 8, true)
	t.mem.WriteF64(a, v)
	t.post(a, 8, true, math.Float64bits(v))
}

// Acquire obtains lock l with acquire semantics.  The traced span covers
// the whole protocol-level acquire (request, transfer wait, notice
// application), protocol-agnostically.
func (t *Thread) Acquire(l int) {
	t.sync()
	t.m.Stats.Inc(t.node.ID, stats.LockAcquires, 1)
	start := t.co.Now()
	t.m.Prot.Acquire(t, l)
	// Recorded after the protocol-level acquire: every release whose
	// interval this grant carries is already in the checker's history.
	t.m.Cfg.Check.LockAcquire(int32(t.node.ID), l, t.co.Now())
	t.m.Cfg.Tracer.LockWait(start, t.co.Now(), int32(t.node.ID), int64(l))
}

// Release releases lock l with release semantics.
func (t *Thread) Release(l int) {
	t.sync()
	// Recorded before the protocol-level release: it precedes any
	// acquire it enables.
	t.m.Cfg.Check.LockRelease(int32(t.node.ID), l, t.co.Now())
	t.m.Prot.Release(t, l)
	t.m.Cfg.Tracer.LockRelease(t.co.Now(), int32(t.node.ID), int64(l))
}

// Barrier waits until all threads reach barrier b.
func (t *Thread) Barrier(b int) {
	t.sync()
	t.m.Stats.Inc(t.node.ID, stats.BarriersCrossed, 1)
	start := t.co.Now()
	t.m.Cfg.Check.BarrierArrive(int32(t.node.ID), b, start)
	t.m.Prot.Barrier(t, b, t.m.Cfg.Procs)
	t.m.Cfg.Check.BarrierDepart(int32(t.node.ID), b, t.co.Now())
	t.m.Cfg.Tracer.BarrierWait(start, t.co.Now(), int32(t.node.ID), int64(b))
}
