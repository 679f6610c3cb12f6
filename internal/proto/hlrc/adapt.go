package hlrc

import (
	"sort"

	"swsm/internal/proto"
	"swsm/internal/proto/lazyrc"
	"swsm/internal/stats"
)

// Adaptive placement: online statistics and the barrier-time commit
// step.  Everything here is driven only by protocol events, so the
// decisions are a pure function of the run's inputs — the property that
// keeps serial and parallel sweeps byte-identical.
//
// Statistics are kept per migratable page (the 4 KB page; identical to
// the table unit when adaptive grain is off).  They are maintained at
// each page's home from the traffic it already sees: remote fetches,
// incoming diffs, and the home's own write faults — the same signals
// the hot-page profiler reports offline, consumed online.  The policy
// predicates run inline when a page's counters change (a handful of
// ALU operations folded into handler work that already costs hundreds
// of cycles), queueing candidates; the barrier manager only re-checks
// and commits the queued few, keeping the scan off the barrier-release
// critical path.

// pageStat is one page's observed sharing profile since its last reset.
type pageStat struct {
	counts    []int64 // accesses per node (fetches, diffs, home writes)
	writers   uint64  // nodes that wrote (bit i%64)
	diffs     int64   // diffs applied at the home
	diffWords int64   // total words across those diffs
	coolUntil int64   // epoch before which the page may not migrate
	pending   bool    // already queued for the next barrier commit
}

// pstat returns (creating if needed) the stat record for migratable
// page pn.
func (p *Protocol) pstat(pn int64) *pageStat {
	ps := p.pstats[pn]
	if ps == nil {
		ps = &pageStat{counts: make([]int64, p.NProcs)}
		p.pstats[pn] = ps
	}
	return ps
}

func resetStat(ps *pageStat) {
	for i := range ps.counts {
		ps.counts[i] = 0
	}
	ps.writers = 0
	ps.diffs = 0
	ps.diffWords = 0
}

// maybeQueue runs the pure policy predicates against pn's fresh
// statistics and queues it for the next barrier commit when one fires.
func (p *Protocol) maybeQueue(pn int64, ps *pageStat) {
	if ps.pending {
		return
	}
	if p.adaptGrain && !p.fine[pn] && p.grains.Candidate(ps.writers, ps.diffs, ps.diffWords) {
		ps.pending = true
		p.pending = append(p.pending, pn)
		return
	}
	if p.adaptHomes && p.epoch >= ps.coolUntil {
		if p.rehomer.Candidate(p.home(pn<<p.pageSpanShift), ps.counts) >= 0 {
			ps.pending = true
			p.pending = append(p.pending, pn)
		}
	}
}

// noteFetch records a remote fetch of the unit starting at cs.
func (p *Protocol) noteFetch(cs int64, requester int) {
	pn := p.ppageOf(cs)
	ps := p.pstat(pn)
	ps.counts[requester]++
	p.maybeQueue(pn, ps)
}

// noteDiff records a diff applied at the home for the unit at cs.
func (p *Protocol) noteDiff(cs int64, from int, words int64) {
	pn := p.ppageOf(cs)
	ps := p.pstat(pn)
	ps.counts[from]++
	ps.writers |= 1 << (uint(from) % 64)
	ps.diffs++
	ps.diffWords += words
	p.maybeQueue(pn, ps)
}

// noteHomeWrite records a write fault by the home node itself.
func (p *Protocol) noteHomeWrite(cs int64, me int) {
	pn := p.ppageOf(cs)
	ps := p.pstat(pn)
	ps.counts[me]++
	ps.writers |= 1 << (uint(me) % 64)
	p.maybeQueue(pn, ps)
}

// adaptAtBarrier commits the queued placement decisions.  Called from
// the barrier manager's last-arrival handler, when all nodes are
// quiescent; returns the handler cycles the commits cost.  The policy
// state is protocol-global, so which node manages the barrier does not
// affect the decisions.
func (p *Protocol) adaptAtBarrier(h proto.HandlerCtx) int64 {
	p.epoch++
	if len(p.pending) == 0 {
		return 0
	}
	// Events queue in simulation order; commits must run in a canonical
	// page order.
	sort.Slice(p.pending, func(i, j int) bool { return p.pending[i] < p.pending[j] })
	mgr := h.Node()
	st := p.Env.Metrics()
	var extra int64
	for _, pn := range p.pending {
		ps := p.pstats[pn]
		ps.pending = false
		extra += p.Costs.HandlerPerItem // re-check, per queued page
		if p.adaptGrain && !p.fine[pn] && p.grains.Demote(ps.writers, ps.diffs, ps.diffWords) {
			extra += p.demotePage(pn)
			st.Inc(mgr, stats.PagesDemoted, 1)
			resetStat(ps)
			continue
		}
		if p.adaptHomes && p.epoch >= ps.coolUntil {
			home := p.home(pn << p.pageSpanShift)
			if to := p.rehomer.Decide(home, ps.counts); to >= 0 {
				extra += p.migratePage(pn, home, to)
				st.Inc(mgr, stats.PagesRehomed, 1)
				resetStat(ps)
				ps.coolUntil = p.epoch + p.rehomer.CooldownEpochs
			}
		}
	}
	p.pending = p.pending[:0]
	return extra
}

// pageRange resolves migratable page pn to its table-unit range.
func (p *Protocol) pageRange(pn int64) (int64, int64) {
	cs := pn << p.pageSpanShift
	span := p.pageSpan
	if cs+span > p.NUnits {
		span = p.NUnits - cs
	}
	return cs, span
}

// demotePage switches page pn from one page-spanning coherence unit to
// per-table-unit (fine) coherence.  Non-home copies are forcibly
// invalidated first: write notices already issued for the page name its
// coarse start and would resolve to a single fine unit after the flip,
// under-invalidating any node that kept a coarse copy.  All nodes are
// quiescent at the barrier, so only clean read-only copies are dropped.
func (p *Protocol) demotePage(pn int64) int64 {
	cs, span := p.pageRange(pn)
	home := p.home(cs)
	p.fine[pn] = true
	st := p.Env.Metrics()
	forced := 0
	for ni, ns := range p.Nodes {
		if ni == home || ns.Mode[cs] == lazyrc.Invalid {
			continue
		}
		lazyrc.SetModes(ns.Mode, cs, span, lazyrc.Invalid)
		p.DropTwin(ns, cs)
		p.Env.CacheInvalidate(ni, p.UnitBase(cs), int(span*p.UnitBytes))
		st.Inc(ni, stats.Invalidations, 1)
		forced++
	}
	if forced == 0 {
		return 0
	}
	return p.Costs.MprotectCost(forced)
}

// migratePage moves page pn's home from node `from` to node `to`: the
// authoritative bytes are copied into the new home's frame (overwriting
// any stale copy there, which keeps the home==me fast path in
// applyNotices sound) and every table unit's home pointer is updated.
// The old home keeps its copy read-only; it is current at this instant
// and future write notices invalidate it like any other sharer's.
func (p *Protocol) migratePage(pn int64, from, to int) int64 {
	cs, span := p.pageRange(pn)
	bytes := span * p.UnitBytes
	buf := p.unitScratch[:bytes]
	p.Env.NodeMem(from).CopyOut(p.UnitBase(cs), buf)
	p.Env.NodeMem(to).CopyIn(p.UnitBase(cs), buf)
	for u := cs; u < cs+span; u++ {
		p.homes[u] = int32(to)
	}
	lazyrc.SetModes(p.Nodes[to].Mode, cs, span, lazyrc.ReadOnly)
	// Two page-sized copies plus remapping at both ends.
	return 2*proto.WordCost(p.Costs.TwinQ4, span*p.UnitWords) +
		p.Costs.MprotectCost(2)
}
