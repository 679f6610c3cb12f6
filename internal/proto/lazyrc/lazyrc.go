// Package lazyrc is the lazy-release-consistency substrate under both
// page-grained protocols: home-based LRC (package hlrc) and classic
// distributed LRC (package lrc).  The two differ in one decision only —
// where diffs go — so everything else is written once here:
//
//   - per-node state: the access-mode table, twins, the dirty list, the
//     vector clock and the grant mailbox;
//   - the write-notice log, one interval (owner, seq, units) per closed
//     interval, and the notices a grant carries;
//   - lock managers (FIFO queue, release clock, hand-off to the next
//     waiter) and barrier managers (clock merge, release of every
//     participant);
//   - Acquire, Release, Barrier, Finalize, Access and AccessTable, and
//     the dispatch of the three synchronization message kinds;
//   - write-notice application: clock merge and invalidation.
//
// A Policy supplies the rest: how a faulting node gets a unit's data,
// what closing an interval does with the diffs, and the policy's own
// data messages.  The Policy interface lists every hook and says where
// HLRC and LRC part ways.
package lazyrc

import (
	"fmt"
	"slices"

	"swsm/internal/comm"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/sim"
	"swsm/internal/stats"
	"swsm/internal/trace"
)

// Unit access modes, in the shared proto.TableProtocol encoding so the
// per-node mode array is the thread fast path's permission table.
const (
	Invalid   = proto.TableInvalid
	ReadOnly  = proto.TableRead
	ReadWrite = proto.TableWrite
)

// Synchronization message kinds.  Kinds 1 and 2 belong to the policy's
// data messages.
const (
	msgAcqReq = iota + 3
	msgRelease
	msgBarArrive
)

// Policy is the diff-propagation half of a lazy-release-consistency
// protocol: the hooks where home-based and classic LRC differ.
type Policy interface {
	// Unit resolves the coherence unit containing table unit u: its first
	// table unit and its span in table units.  HLRC's adaptive grain
	// makes a coarse page one unit spanning several table units; LRC's
	// unit is always the page.
	Unit(u int64) (cs, span int64)
	// Current reports whether node's copy of unit cs is kept up to date
	// by the policy itself, so write notices never invalidate it.  HLRC
	// applies every diff at the home eagerly, so the home copy is
	// current; an LRC manager's base copy goes stale like any other.
	Current(node int, cs int64) bool
	// Fetch brings the current contents of invalid unit cs into the
	// faulting thread's node, blocking it until they are there.  HLRC
	// fetches the whole unit from its home; LRC fetches a base copy if it
	// has none and the diffs it has not applied from every writer.
	Fetch(th proto.Thread, cs, span int64)
	// WriteFault runs at the first write to valid unit cs in an interval,
	// before the unit turns read-write.  LRC always twins; HLRC twins
	// except at the home, whose writes update the home copy in place.
	WriteFault(th proto.Thread, cs, span int64)
	// Flush handles the diffs of units, the sorted dirty units of the
	// node's interval seq, which the substrate has already downgraded to
	// read-only.  HLRC diffs them and sends each diff to the unit's home
	// (acknowledged later); LRC diffs them and retains the diffs at the
	// writer.
	Flush(th proto.Thread, units []int64, seq int32)
	// AwaitFlush blocks until the node's flushed diffs are visible, after
	// every interval close at a release, barrier or finalize.  HLRC waits
	// for the homes' acks; LRC has nothing to wait for, which is what
	// makes its releases cheap.
	AwaitFlush(th proto.Thread, cat stats.Category)
	// CountsInvalidationFlush reports whether a dirty unit flushed because
	// a write notice invalidates it (concurrent writers) is charged as a
	// full interval close: one write notice and an mprotect.  LRC does,
	// because it commits the unit through its ordinary flush; HLRC
	// issues the singleton interval without either charge.
	CountsInvalidationFlush() bool
	// Invalidated drops the policy's own state for node's copy of unit
	// cs after a write notice invalidated it.  LRC forgets which
	// intervals it applied to the copy and that it held one, so the next
	// fault rebuilds it from the base plus the whole diff history; HLRC
	// keeps nothing per copy.
	Invalidated(node int, cs int64)
	// Handle serves the policy's data messages (kinds 1 and 2): page and
	// diff for HLRC, base and diff requests for LRC.
	Handle(h proto.HandlerCtx, m *comm.Message) int64
	// AtBarrier runs at the barrier manager once every participant has
	// been released and returns its handler cycles.  HLRC commits its
	// adaptive home and grain decisions here; LRC does nothing.
	AtBarrier(h proto.HandlerCtx) int64
}

// Node is one node's view of the shared address space.
type Node struct {
	// Mode is the access mode of every table unit: the TableProtocol
	// table.  Transitions are unit-wide (see SetModes).
	Mode []uint8
	// Twin holds the pre-write snapshot of every unit dirty in the open
	// interval, keyed by the unit's first table unit.
	Twin map[int64][]byte
	// VC is the highest interval seen, per owner.
	VC []int32

	dirty []int64 // units written in the open interval, in fault order
	// grant is the mailbox for lock grants and barrier releases: the
	// OnDeliver stores the payload and wakes the thread, which applies
	// the notices in its own context (so invalidation costs are charged
	// to the right processor).
	grant *grant
}

// notice is one closed writer interval as write notices name it.
type notice struct {
	owner int
	seq   int32
	units []int64
}

// grant is delivered on lock grants and barrier releases: the grantor's
// vector clock plus the write notices the receiver has not yet seen.
type grant struct {
	vc      []int32
	notices []notice
}

// syncMsg is the payload of an acquire request, a release and a barrier
// arrival: the lock or barrier, the sender and its vector clock.
type syncMsg struct {
	id   int
	proc int
	vc   []int32
}

// lockState lives at the lock's manager node.
type lockState struct {
	held      bool
	holder    int
	releaseVC []int32 // vector clock of the last release
	queue     []syncMsg
}

// barrierState lives at the barrier's manager node.
type barrierState struct {
	arrived int
	vcs     [][]int32
	procs   []int
}

// Core is the substrate state of one protocol instance.  Policies embed
// it, so its methods are the protocol's Access, Acquire, Release,
// Barrier, Finalize, Handle and AccessTable.
type Core struct {
	Costs proto.Costs
	Env   proto.Env
	// Tr caches Env.Tracer() at Bind; nil (tracing off) makes every hook
	// call a no-op.
	Tr        *trace.Tracer
	NProcs    int
	NUnits    int64 // table units covering node memory
	UnitShift uint
	UnitBytes int64
	UnitWords int64
	Nodes     []*Node

	pol      Policy
	pageSpan int64      // table units per coarse page (1 without adaptive grain)
	log      [][]notice // write notices, per owner, indexed by seq-1
	locks    map[int]*lockState
	barriers map[int]*barrierState

	// Hot-path scratch.  The simulation engine is single-threaded, and
	// none of these survive across a coroutine yield point, so one set
	// per protocol instance is safe.  vcScratch holds the merged barrier
	// clock; unitFree and pageFree recycle unit- and page-sized buffers
	// (twins, fetched copies) whose lifetime ends at a flush,
	// invalidation or delivery.
	vcScratch []int32
	unitFree  [][]byte
	pageFree  [][]byte

	// dropNth, when > 0, deliberately skips the dropNth-th invalidation
	// applyNotices considers (counted in invSeen) — the known-bad shim
	// behind hlrc.Config.DropNthInvalidation.
	dropNth int
	invSeen int
}

// NewCore returns a substrate with 2^unitShift-byte table units and
// coarse pages of pageSpan table units; dropNth is the known-bad
// invalidation shim (0 for a correct protocol).
func NewCore(costs proto.Costs, unitShift uint, pageSpan int64, dropNth int) Core {
	return Core{
		Costs: costs, UnitShift: unitShift,
		UnitBytes: 1 << unitShift, UnitWords: (1 << unitShift) / mem.WordSize,
		pageSpan: pageSpan, dropNth: dropNth,
		locks: make(map[int]*lockState), barriers: make(map[int]*barrierState),
	}
}

// Bind wires the environment and the policy and sizes the per-node
// state.  Every unit starts invalid everywhere; the policy maps its
// homes' copies.
func (c *Core) Bind(env proto.Env, pol Policy) {
	c.Env = env
	c.Tr = env.Tracer()
	c.pol = pol
	c.NProcs = env.NumProcs()
	c.NUnits = (env.NodeMem(0).Limit() + c.UnitBytes - 1) >> c.UnitShift
	c.vcScratch = make([]int32, c.NProcs)
	c.log = make([][]notice, c.NProcs)
	c.Nodes = make([]*Node, c.NProcs)
	for i := range c.Nodes {
		c.Nodes[i] = &Node{
			Mode: make([]uint8, c.NUnits),
			Twin: make(map[int64][]byte),
			VC:   make([]int32, c.NProcs),
		}
	}
}

// ConsistencyModel declares the contract the checker verifies: both
// protocols provide (lazy) release consistency.
func (c *Core) ConsistencyModel() proto.Model { return proto.ModelRC }

// UnitBase is the first address of table unit u.
func (c *Core) UnitBase(u int64) int64 { return u << c.UnitShift }

// SetModes sets the access mode of a whole coherence unit.  All mode
// transitions are unit-wide, so a coarse page's table units always
// agree — the invariant that lets Policy.Unit treat mode[cs] as
// authoritative.
func SetModes(mode []uint8, cs, span int64, m uint8) {
	for u := cs; u < cs+span; u++ {
		mode[u] = m
	}
}

// CopyUnit extracts the coherence unit [cs, cs+span) from a node's
// memory into a recycled buffer (return it with FreeBuf when its
// lifetime ends).
func (c *Core) CopyUnit(node int, cs, span int64) []byte {
	buf := c.newBuf(span)
	c.Env.NodeMem(node).CopyOut(c.UnitBase(cs), buf)
	return buf
}

// newBuf returns a span-sized buffer from the matching free list (or a
// fresh one).  Contents are undefined; every user overwrites the whole
// range.  Odd spans (a coarse page clamped at the end of memory) are
// allocated fresh and not recycled.
func (c *Core) newBuf(span int64) []byte {
	var free *[][]byte
	switch span {
	case 1:
		free = &c.unitFree
	case c.pageSpan:
		free = &c.pageFree
	default:
		return make([]byte, span*c.UnitBytes)
	}
	if n := len(*free); n > 0 {
		buf := (*free)[n-1]
		*free = (*free)[:n-1]
		return buf
	}
	return make([]byte, span*c.UnitBytes)
}

// FreeBuf recycles a twin or unit copy onto the free list matching its
// size.
func (c *Core) FreeBuf(buf []byte) {
	switch int64(len(buf)) {
	case c.UnitBytes:
		c.unitFree = append(c.unitFree, buf)
	case c.pageSpan * c.UnitBytes:
		c.pageFree = append(c.pageFree, buf)
	}
}

// DropTwin removes the twin of unit cs (if any) and recycles its buffer.
func (c *Core) DropTwin(ns *Node, cs int64) {
	if twin, ok := ns.Twin[cs]; ok {
		delete(ns.Twin, cs)
		c.FreeBuf(twin)
	}
}

// MakeTwin snapshots coherence unit cs before its first write of an
// interval.
func (c *Core) MakeTwin(th proto.Thread, cs, span int64) {
	me := th.Proc()
	ns := c.Nodes[me]
	if _, ok := ns.Twin[cs]; ok {
		return
	}
	ns.Twin[cs] = c.CopyUnit(me, cs, span)
	cost := proto.WordCost(c.Costs.TwinQ4, span*c.UnitWords)
	cost += c.Env.CacheTouch(me, c.UnitBase(cs), int(span*c.UnitBytes), false)
	th.Charge(stats.Protocol, cost)
	st := c.Env.Metrics()
	st.Inc(me, stats.TwinsCreated, 1)
	st.AddDiff(me, cost)
	c.Tr.Twin(c.Env.Now(), int32(me), cs)
}

// --- access-fault side (thread context) ---

// AccessTable exposes the per-proc mode array for the thread fast path
// (proto.TableProtocol): the mode encoding already matches the uniform
// 0/1/2 convention.
func (c *Core) AccessTable(proc int) ([]uint8, uint) {
	return c.Nodes[proc].Mode, c.UnitShift
}

// Access implements the access check and fault path.  The mode check is
// open-coded here so the granted-access common case never leaves this
// frame; ensure re-checks at the coherence unit.
func (c *Core) Access(th proto.Thread, addr int64, size int, write bool) {
	first := addr >> c.UnitShift
	last := (addr + int64(size) - 1) >> c.UnitShift
	mode := c.Nodes[th.Proc()].Mode
	for u := first; u <= last; u++ {
		m := mode[u]
		if write {
			if m == ReadWrite {
				continue
			}
		} else if m != Invalid {
			continue
		}
		c.ensure(th, u, write)
	}
}

func (c *Core) ensure(th proto.Thread, u int64, write bool) {
	cs, span := c.pol.Unit(u)
	me := th.Proc()
	ns := c.Nodes[me]
	m := ns.Mode[cs]
	if write {
		if m == ReadWrite {
			return
		}
	} else if m != Invalid {
		return
	}
	st := c.Env.Metrics()
	c.Tr.PageFault(c.Env.Now(), int32(me), cs, write)

	if m == Invalid {
		th.Charge(stats.Protocol, c.Costs.FaultBase)
		st.Inc(me, stats.PageFetches, 1)
		c.pol.Fetch(th, cs, span)
		SetModes(ns.Mode, cs, span, ReadOnly)
		th.Charge(stats.Protocol, c.Costs.MprotectCost(1))
		st.Inc(me, stats.PageProtects, 1)
	}
	if write {
		c.pol.WriteFault(th, cs, span)
		ns.dirty = append(ns.dirty, cs)
		SetModes(ns.Mode, cs, span, ReadWrite)
		th.Charge(stats.Protocol, c.Costs.MprotectCost(1))
		st.Inc(me, stats.PageProtects, 1)
	}
}

// --- interval close ---

// flush closes the open interval at a release, barrier or finalize, then
// waits as the policy requires.  waitCat attributes the wait (LockWait
// at releases, BarrierWait at barriers).
func (c *Core) flush(th proto.Thread, waitCat stats.Category) {
	ns := c.Nodes[th.Proc()]
	if len(ns.dirty) > 0 {
		// Deterministic unit order; a unit can fault read-only->write
		// twice across nested invalidation flushes, hence the dedup.
		units := append([]int64(nil), ns.dirty...)
		slices.Sort(units)
		uniq := units[:0]
		for i, u := range units {
			if i == 0 || u != units[i-1] {
				uniq = append(uniq, u)
			}
		}
		c.closeInterval(th, uniq)
		ns.dirty = ns.dirty[:0]
	}
	c.pol.AwaitFlush(th, waitCat)
}

// closeInterval commits units as the node's next interval and charges
// its write notices and the one mprotect call that downgrades them.
func (c *Core) closeInterval(th proto.Thread, units []int64) {
	me := th.Proc()
	c.commit(th, units)
	st := c.Env.Metrics()
	st.Inc(me, stats.WriteNotices, int64(len(units)))
	th.Charge(stats.Protocol, c.Costs.MprotectCost(len(units)))
	st.Inc(me, stats.PageProtects, int64(len(units)))
}

// commit advances the node's clock to a new interval, downgrades its
// dirty units, hands them to the policy's flush and logs the interval's
// write notice.
func (c *Core) commit(th proto.Thread, units []int64) {
	me := th.Proc()
	ns := c.Nodes[me]
	seq := ns.VC[me] + 1
	ns.VC[me] = seq
	for _, u := range units {
		if ns.Mode[u] == ReadWrite {
			_, span := c.pol.Unit(u)
			SetModes(ns.Mode, u, span, ReadOnly)
		}
	}
	c.pol.Flush(th, units, seq)
	c.log[me] = append(c.log[me], notice{owner: me, seq: seq, units: units})
}

// --- synchronization (thread context) ---

func (c *Core) syncRequest(th proto.Thread, kind, id, dst int) *comm.Message {
	me := th.Proc()
	return &comm.Message{
		Src: me, Dst: dst, Kind: kind,
		Size:    int64(16 + 4*c.NProcs),
		Payload: syncMsg{id: id, proc: me, vc: cloneVC(c.Nodes[me].VC)}, NeedsHandler: true,
	}
}

// Acquire implements lock acquisition with lazy-release-consistency
// semantics: the grant carries the write notices this node has not seen,
// and the node invalidates the named units before entering the critical
// section.
func (c *Core) Acquire(th proto.Thread, lock int) {
	th.Send(stats.LockWait, c.syncRequest(th, msgAcqReq, lock, c.manager(lock)))
	c.awaitGrant(th, stats.LockWait)
}

// Release closes the interval, then notifies the lock manager, which
// passes the lock to the next waiter.
func (c *Core) Release(th proto.Thread, lock int) {
	c.flush(th, stats.LockWait)
	th.Send(stats.LockWait, c.syncRequest(th, msgRelease, lock, c.manager(lock)))
}

// Barrier implements the all-to-all consistency point: close the
// interval, notify the barrier manager, and on release apply the write
// notices of every other node's intervals.
func (c *Core) Barrier(th proto.Thread, bar int, total int) {
	c.flush(th, stats.BarrierWait)
	th.Send(stats.BarrierWait, c.syncRequest(th, msgBarArrive, bar, c.manager(bar)))
	c.awaitGrant(th, stats.BarrierWait)
}

// Finalize closes the node's last interval.
func (c *Core) Finalize(th proto.Thread) {
	c.flush(th, stats.BarrierWait)
}

// manager is the node managing lock or barrier id.
func (c *Core) manager(id int) int { return id % c.NProcs }

// awaitGrant blocks until a grant lands in the mailbox and applies it.
func (c *Core) awaitGrant(th proto.Thread, cat stats.Category) {
	th.BlockFor(cat)
	ns := c.Nodes[th.Proc()]
	g := ns.grant
	ns.grant = nil
	if g == nil {
		panic(fmt.Sprintf("lazyrc: proc %d woke without a grant", th.Proc()))
	}
	c.applyNotices(th, g)
}

// applyNotices processes a grant: merges the vector clock and
// invalidates the units named by unseen write notices (one mprotect
// batch).
func (c *Core) applyNotices(th proto.Thread, g *grant) {
	me := th.Proc()
	ns := c.Nodes[me]
	invalidated := 0
	for _, n := range g.notices {
		if n.seq <= ns.VC[n.owner] {
			continue // already seen
		}
		if n.owner != me {
			for _, u := range n.units {
				// Notices name coherence-unit starts; with adaptive grain
				// classes only change at barriers when pre-change notices
				// are VC-dead, so resolving the span here is safe.
				cs, span := c.pol.Unit(u)
				if c.pol.Current(me, cs) || ns.Mode[cs] == Invalid {
					continue
				}
				c.invSeen++
				if c.invSeen == c.dropNth {
					// Deliberately-broken oracle mode: leave the stale copy
					// mapped.  The vector clock still merges below, so the
					// notice is never reapplied — silent staleness.
					continue
				}
				if ns.Mode[cs] == ReadWrite {
					// Concurrent writers: save our modifications first.
					c.flushForInvalidation(th, cs)
				}
				SetModes(ns.Mode, cs, span, Invalid)
				c.DropTwin(ns, cs)
				c.pol.Invalidated(me, cs)
				c.Env.CacheInvalidate(me, c.UnitBase(cs), int(span*c.UnitBytes))
				c.Tr.Invalidate(c.Env.Now(), int32(me), cs)
				invalidated++
			}
		}
		if n.seq > ns.VC[n.owner] {
			ns.VC[n.owner] = n.seq
		}
	}
	maxVC(ns.VC, g.vc)
	if invalidated > 0 {
		th.Charge(stats.Protocol, c.Costs.MprotectCost(invalidated))
		st := c.Env.Metrics()
		st.Inc(me, stats.Invalidations, int64(invalidated))
		st.Inc(me, stats.PageProtects, int64(invalidated))
	}
}

// flushForInvalidation commits dirty unit cs, which an incoming write
// notice is about to invalidate, as a singleton interval so other nodes
// learn of the write.  The node's other dirty units stay in the open
// interval.
func (c *Core) flushForInvalidation(th proto.Thread, cs int64) {
	ns := c.Nodes[th.Proc()]
	kept := ns.dirty[:0]
	for _, d := range ns.dirty {
		if d != cs {
			kept = append(kept, d)
		}
	}
	ns.dirty = kept
	if c.pol.CountsInvalidationFlush() {
		c.closeInterval(th, []int64{cs})
	} else {
		c.commit(th, []int64{cs})
	}
}

// noticesSince collects the intervals with owner-sequence numbers in
// (fromVC, toVC], the write notices a grant must carry.
func (c *Core) noticesSince(fromVC, toVC []int32) []notice {
	var out []notice
	for o := 0; o < c.NProcs; o++ {
		for s := fromVC[o] + 1; s <= toVC[o]; s++ {
			out = append(out, c.log[o][s-1])
		}
	}
	return out
}

// --- synchronization handlers (manager nodes) ---

// Handle processes protocol request messages on their destination node,
// returning the handler body cost (the core adds the message-handling
// dispatch cost and per-send host overheads).  The policy serves every
// kind but the synchronization ones.
func (c *Core) Handle(h proto.HandlerCtx, m *comm.Message) int64 {
	switch m.Kind {
	case msgAcqReq:
		return c.handleAcqReq(h, m.Payload.(syncMsg))
	case msgRelease:
		return c.handleRelease(h, m.Payload.(syncMsg))
	case msgBarArrive:
		return c.handleBarArrive(h, m.Payload.(syncMsg))
	}
	return c.pol.Handle(h, m)
}

// handleAcqReq runs at the lock manager: grant immediately if free, else
// queue the acquirer.
func (c *Core) handleAcqReq(h proto.HandlerCtx, req syncMsg) int64 {
	ls := c.lockState(req.id)
	if ls.held {
		ls.queue = append(ls.queue, req)
		return c.Costs.HandlerBase
	}
	ls.held = true
	ls.holder = req.proc
	n := c.sendGrant(h, req.proc, req.vc, ls.releaseVC)
	return c.Costs.HandlerBase + c.Costs.HandlerPerItem*int64(n)
}

// handleRelease runs at the lock manager: record the release timestamp
// and pass the lock to the next waiter if any.
func (c *Core) handleRelease(h proto.HandlerCtx, rel syncMsg) int64 {
	ls := c.lockState(rel.id)
	if !ls.held || ls.holder != rel.proc {
		panic(fmt.Sprintf("lazyrc: release of lock %d by non-holder %d", rel.id, rel.proc))
	}
	copy(ls.releaseVC, rel.vc) // same length; reuse instead of reallocating
	if len(ls.queue) == 0 {
		ls.held = false
		return c.Costs.HandlerBase
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next.proc
	n := c.sendGrant(h, next.proc, next.vc, ls.releaseVC)
	return c.Costs.HandlerBase + c.Costs.HandlerPerItem*int64(n)
}

// handleBarArrive runs at the barrier manager: collect arrivals; when
// the last one lands, merge the clocks and release everyone with their
// missing notices.
func (c *Core) handleBarArrive(h proto.HandlerCtx, ba syncMsg) int64 {
	bs := c.barriers[ba.id]
	if bs == nil {
		bs = &barrierState{}
		c.barriers[ba.id] = bs
	}
	bs.arrived++
	bs.procs = append(bs.procs, ba.proc)
	bs.vcs = append(bs.vcs, ba.vc)
	if bs.arrived < c.NProcs {
		return c.Costs.HandlerBase
	}
	// Last arrival: release all participants.  The merged clock lives in
	// the preallocated scratch; each grant clones what it retains.
	merged := c.vcScratch
	for i := range merged {
		merged[i] = 0
	}
	for _, vc := range bs.vcs {
		maxVC(merged, vc)
	}
	items := 0
	for i, proc := range bs.procs {
		items += c.sendGrant(h, proc, bs.vcs[i], merged)
	}
	bs.arrived = 0
	bs.procs = bs.procs[:0]
	bs.vcs = bs.vcs[:0]
	adapt := c.pol.AtBarrier(h)
	return c.Costs.HandlerBase + c.Costs.HandlerPerItem*int64(items) + adapt
}

// sendGrant ships a grant carrying the write notices in (acqVC, relVC];
// returns the notice count (for handler cost accounting).
func (c *Core) sendGrant(h proto.HandlerCtx, to int, acqVC, relVC []int32) int {
	notices := c.noticesSince(acqVC, relVC)
	g := &grant{vc: cloneVC(relVC), notices: notices}
	toNS := c.Nodes[to]
	h.Send(&comm.Message{
		Src: h.Node(), Dst: to, Size: grantSize(c.NProcs, notices),
		OnDeliver: func(now sim.Time) {
			toNS.grant = g
			c.Env.WakeThread(to)
		},
	})
	return len(notices)
}

func (c *Core) lockState(lock int) *lockState {
	ls := c.locks[lock]
	if ls == nil {
		ls = &lockState{releaseVC: make([]int32, c.NProcs)}
		c.locks[lock] = ls
	}
	return ls
}

// grantSize computes the wire size of a grant message.
func grantSize(nprocs int, notices []notice) int64 {
	sz := int64(16 + 4*nprocs)
	for _, n := range notices {
		sz += 12 + 4*int64(len(n.units))
	}
	return sz
}

func cloneVC(vc []int32) []int32 {
	out := make([]int32, len(vc))
	copy(out, vc)
	return out
}

func maxVC(dst, src []int32) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}
