// Package lrc implements classic (TreadMarks-style) lazy release
// consistency — the "traditional LRC" the paper contrasts HLRC with:
// writers keep their diffs DISTRIBUTED at the writing node, and a
// faulting processor must collect the diffs it has not seen from every
// relevant writer and merge them itself, instead of fetching one
// up-to-date page from a home.
//
// The lazy-release-consistency machinery both protocols share — twins,
// vector timestamps, the write-notice log, locks and barriers that carry
// notices on grants and releases, the access path — is the substrate in
// internal/proto/lazyrc.  This package is the distributed diff
// propagation policy on top of it:
//
//   - Release: diffs are created and RETAINED locally in a per-owner log
//     parallel to the substrate's notice log (no eager propagation, no
//     home, no acks to wait for — releases are cheap).
//   - Page fault: the faulting node fetches a base copy from the page's
//     manager if it has none, then requests, from every writer with
//     unseen intervals covering the page, the diffs of those intervals,
//     and applies them in a happened-before-compatible order.
//
// Diffs are created eagerly at release (original Munin/LRC style) rather
// than lazily on first request as TreadMarks optimizes; the distributed
// placement — the property under study — is identical.  Diff storage is
// never garbage collected (TreadMarks GCs at barriers), which is fine
// for the simulated runs and documented in DESIGN.md.
package lrc

import (
	"swsm/internal/comm"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/proto/lazyrc"
	"swsm/internal/proto/wdiff"
	"swsm/internal/stats"
)

// Data message kinds (the substrate owns the synchronization kinds).
const (
	msgBaseReq = iota + 1
	msgDiffReq
)

const wordsPerPage = mem.PageSize / mem.WordSize

// interval is one closed writer interval's retained diffs, one per page
// it wrote, at the same (owner, seq) as its substrate write notice.
type interval struct {
	owner int
	seq   int32
	diffs map[int64][]wdiff.Word
	// vcSum orders concurrent-safe application (any linear extension of
	// happened-before; componentwise-less implies strictly smaller sum).
	vcSum int64
}

// nodeState is one node's policy state.
type nodeState struct {
	// applied[pg][w] is the highest interval of writer w merged into
	// this node's copy of pg.
	applied map[int64][]int32
	// held marks pages this node has ever had a copy of (cleared on
	// invalidation; absence forces a base-copy fetch at the next fault).
	held map[int64]struct{}
	// fault rendezvous: replies outstanding for the current page fault.
	faultWait int
}

// Config holds LRC options.
type Config struct {
	Costs proto.Costs
}

// Protocol is the classic-LRC instance.
type Protocol struct {
	lazyrc.Core

	managers  []int32 // page -> manager (serves base copies)
	nodes     []*nodeState
	intervals [][]*interval // per owner, indexed seq-1

	finalized int      // nodes that have run Finalize
	rb        readback // ReadCoherent's last page

	// diffScratch collects a page's modified words before they are
	// right-sized into the retained interval diff (single-threaded
	// engine; it never survives a yield point).
	diffScratch []wdiff.Word
}

// New creates a classic-LRC protocol.
func New(cfg Config) *Protocol {
	return &Protocol{Core: lazyrc.NewCore(cfg.Costs, mem.PageShift, 1, 0)}
}

// Name identifies the protocol.
func (p *Protocol) Name() string { return "lrc" }

// Attach wires the environment and sizes per-node state.
func (p *Protocol) Attach(env proto.Env) {
	p.Bind(env, policy{p})
	p.managers = make([]int32, p.NUnits)
	for i := int64(0); i < p.NUnits; i++ {
		p.managers[i] = int32(i % int64(p.NProcs))
	}
	p.nodes = make([]*nodeState, p.NProcs)
	p.intervals = make([][]*interval, p.NProcs)
	for i := range p.nodes {
		p.nodes[i] = &nodeState{applied: make(map[int64][]int32)}
	}
	for pg := int64(0); pg < p.NUnits; pg++ {
		p.Nodes[p.manager(pg)].Mode[pg] = lazyrc.ReadOnly
	}
}

// AssignHome moves the manager (base-copy server) of a range, migrating
// contents, so applications' Place calls work as with the other
// protocols.
func (p *Protocol) AssignHome(addr, size int64, node int) {
	first, last := mem.PageOf(addr), mem.PageOf(addr+size-1)
	for pg := first; pg <= last; pg++ {
		old := int(p.managers[pg])
		if old == node {
			continue
		}
		src := p.Env.NodeMem(old).Frame(pg)
		dst := p.Env.NodeMem(node).Frame(pg)
		copy(dst[:], src[:])
		p.Nodes[old].Mode[pg] = lazyrc.Invalid
		p.managers[pg] = int32(node)
		p.rb.ok = false
		p.Nodes[node].Mode[pg] = lazyrc.ReadOnly
	}
}

func (p *Protocol) manager(pg int64) int { return int(p.managers[pg]) }

// appliedFor returns (allocating) the applied-interval vector of pg.
func (ns *nodeState) appliedFor(pg int64, nprocs int) []int32 {
	a := ns.applied[pg]
	if a == nil {
		a = make([]int32, nprocs)
		ns.applied[pg] = a
	}
	return a
}

// everHeld / markHeld track whether this node ever had a copy of pg
// (whether a base fetch is needed).
func (ns *nodeState) everHeld(pg int64) bool {
	_, ok := ns.held[pg]
	return ok
}

func (ns *nodeState) markHeld(pg int64) {
	if ns.held == nil {
		ns.held = make(map[int64]struct{})
	}
	ns.held[pg] = struct{}{}
}

// policy is LRC's side of the lazyrc seam: diffs retained at the writer
// and collected at faults.  A separate type keeps the hooks off
// Protocol's method set.
type policy struct{ *Protocol }

// Unit: the coherence unit is always the page.
func (p policy) Unit(u int64) (int64, int64) { return u, 1 }

// Current: no copy is kept current eagerly; the manager's base copy
// goes stale like any other.
func (p policy) Current(node int, pg int64) bool { return false }

// WriteFault twins every page, the manager's included: a diff against a
// missing twin would be wrong, and diffs are the only way writes leave
// the writer.
func (p policy) WriteFault(th proto.Thread, pg, span int64) { p.MakeTwin(th, pg, span) }

// AwaitFlush: retained diffs need no acknowledgement.
func (p policy) AwaitFlush(th proto.Thread, cat stats.Category) {}

// CountsInvalidationFlush: a page flushed because a notice invalidates
// it is committed through the ordinary interval close, which counts its
// write notice and charges its mprotect.
func (p policy) CountsInvalidationFlush() bool { return true }

// Invalidated clears the page's applied vector and held marker, so the
// next fault rebuilds the copy from the base plus the full diff history
// (classic LRC without GC).
func (p policy) Invalidated(node int, pg int64) {
	ns := p.nodes[node]
	delete(ns.applied, pg)
	if ns.held != nil {
		delete(ns.held, pg)
	}
}

func (p policy) AtBarrier(h proto.HandlerCtx) int64 { return 0 }

// Flush creates and retains the diffs of the interval's dirty pages.
// Unlike HLRC there is nothing to send — the cheap release is classic
// LRC's selling point, paid back later at faults.
func (p policy) Flush(th proto.Thread, pages []int64, seq int32) {
	me := th.Proc()
	ns, ls := p.Nodes[me], p.nodes[me]
	iv := &interval{owner: me, seq: seq, diffs: make(map[int64][]wdiff.Word)}
	st := p.Env.Metrics()
	for _, pg := range pages {
		frame := p.Env.NodeMem(me).Frame(pg)
		twin, ok := ns.Twin[pg]
		if !ok {
			panic("lrc: dirty page without twin")
		}
		// Diff into the protocol scratch (8-byte-wide compare), then
		// right-size into the retained interval diff.  Retained diffs are
		// never garbage collected (classic LRC without GC), so they get
		// exact-size allocations rather than append-grown capacity.
		p.diffScratch = wdiff.Append(p.diffScratch[:0], twin, frame[:])
		var d []wdiff.Word
		if len(p.diffScratch) > 0 {
			d = make([]wdiff.Word, len(p.diffScratch))
			copy(d, p.diffScratch)
		}
		iv.diffs[pg] = d
		p.DropTwin(ns, pg)
		cost := proto.WordCost(p.Costs.DiffCompareQ4, wordsPerPage) +
			proto.WordCost(p.Costs.DiffWriteQ4, int64(len(d)))
		cost += p.Env.CacheTouch(me, mem.PageBase(pg), mem.PageSize, false)
		st.AddDiff(me, cost)
		th.Charge(stats.Protocol, cost)
		st.Inc(me, stats.DiffsCreated, 1)
		st.Inc(me, stats.DiffWordsCompared, wordsPerPage)
		st.Inc(me, stats.DiffWordsWritten, int64(len(d)))
		p.Tr.DiffCreate(p.Env.Now(), int32(me), pg, int64(len(d)))
		// Our own copy reflects our interval.
		ls.appliedFor(pg, p.NProcs)[me] = seq
		ls.markHeld(pg)
	}
	for _, v := range ns.VC {
		iv.vcSum += int64(v)
	}
	p.addInterval(iv)
}

// addInterval retains a closed interval's diffs; the new diffs make any
// cached readback stale.
func (p *Protocol) addInterval(iv *interval) {
	p.intervals[iv.owner] = append(p.intervals[iv.owner], iv)
	p.rb.ok = false
}

// Fetch collects the base copy (if needed) and all unseen diffs for pg,
// in parallel, then applies them in happened-before order.
func (p policy) Fetch(th proto.Thread, pg, span int64) {
	me := th.Proc()
	vc, ns := p.Nodes[me].VC, p.nodes[me]
	applied := ns.appliedFor(pg, p.NProcs)

	// Which writers have intervals covering pg that we have seen notices
	// for (vc) but not yet merged (applied)?
	type want struct {
		writer   int
		from, to int32
	}
	var wants []want
	var ownIvs []*interval
	for w := 0; w < p.NProcs; w++ {
		var lo, hi int32 = 0, 0
		for s := applied[w] + 1; s <= vc[w]; s++ {
			iv := p.intervals[w][s-1]
			if _, ok := iv.diffs[pg]; ok {
				if lo == 0 {
					lo = s
				}
				hi = s
				if w == me {
					// Our own retained diffs reapply locally for free.
					ownIvs = append(ownIvs, iv)
				}
			}
		}
		if hi > 0 && w != me {
			wants = append(wants, want{writer: w, from: lo, to: hi})
		}
	}

	base := !ns.everHeld(pg) && p.manager(pg) != me

	fetchStart := p.Env.Now()
	ns.faultWait = 0
	if base {
		ns.faultWait++
		req := &comm.Message{
			Src: me, Dst: p.manager(pg), Kind: msgBaseReq, Size: 16,
			Payload: baseReq{page: pg, requester: me}, NeedsHandler: true,
		}
		th.Send(stats.DataWait, req)
	}

	// Collected diff replies, merged after all arrive.
	replies := make([][]*interval, 0, len(wants))
	for _, wn := range wants {
		ns.faultWait++
		slot := len(replies)
		replies = append(replies, nil)
		req := &comm.Message{
			Src: me, Dst: wn.writer, Kind: msgDiffReq, Size: 24,
			Payload: diffReq{page: pg, requester: me, from: wn.from, to: wn.to,
				deliver: func(ivs []*interval) { replies[slot] = ivs }},
			NeedsHandler: true,
		}
		th.Send(stats.DataWait, req)
	}

	for ns.faultWait > 0 {
		th.BlockFor(stats.DataWait)
	}
	p.Tr.PageFetch(fetchStart, p.Env.Now(), int32(me), pg)
	ns.markHeld(pg)

	// Merge in a linear extension of happened-before (vc-sum order).
	ivs := ownIvs
	for _, r := range replies {
		ivs = append(ivs, r...)
	}
	sortIntervals(ivs)
	frame := p.Env.NodeMem(me).Frame(pg)
	st := p.Env.Metrics()
	var applyCost int64
	for _, iv := range ivs {
		d := iv.diffs[pg]
		wdiff.Apply(frame[:], d)
		applyCost += proto.WordCost(p.Costs.DiffApplyQ4, int64(len(d)))
		if iv.seq > applied[iv.owner] {
			applied[iv.owner] = iv.seq
		}
		st.Inc(me, stats.DiffsApplied, 1)
		p.Tr.DiffApply(p.Env.Now(), int32(me), pg, int64(len(d)))
	}
	applyCost += p.Env.CacheTouch(me, mem.PageBase(pg), mem.PageSize, true)
	if applyCost > 0 {
		st.AddDiff(me, applyCost)
		th.Charge(stats.Protocol, applyCost)
	}
}

var _ proto.Protocol = (*Protocol)(nil)
var _ proto.TableProtocol = (*Protocol)(nil)
