// Package hlrc implements Home-based Lazy Release Consistency, the
// page-grained shared virtual memory protocol the paper studies (Zhou,
// Iftode & Li's HLRC, built on Keleher's LRC model).
//
// Protocol structure, as in the paper:
//
//   - Virtual-memory page granularity (4 KB) with mprotect-style access
//     control, whose cost is a Table-3 parameter.
//   - Multiple-writer support through twinning and word-grain diffing.
//   - Eager diff propagation: at every release point a writer closes its
//     interval, diffs its dirty pages against their twins, and sends the
//     diffs to each page's designated home, which applies them so the
//     home copy is always up to date according to the consistency model.
//   - On a page fault the whole page is fetched from the home (no diff
//     collection from previous writers, unlike classic LRC).
//   - Lazy invalidation through write notices carried by vector-clock
//     timestamps on lock grants and barrier releases.
//
// The lazy-release-consistency machinery — intervals, write notices,
// locks, barriers, the access path — is the substrate in
// internal/proto/lazyrc; this package is the home-based diff
// propagation policy on top of it, plus adaptive home and grain
// placement.
//
// A releaser waits for its diffs to be acknowledged by the homes before
// the release becomes visible, which orders diff application before any
// causally later page fetch — the property that makes application
// results correct.
package hlrc

import (
	"fmt"

	"swsm/internal/comm"
	"swsm/internal/hetero"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/proto/lazyrc"
	"swsm/internal/proto/wdiff"
	"swsm/internal/stats"
)

// Data message kinds (the substrate owns the synchronization kinds).
const (
	msgPageReq = iota + 1
	msgDiff
)

// DefaultUnitShift is the classic SVM coherence unit: the 4 KB page.
const DefaultUnitShift = mem.PageShift

// Config holds HLRC-specific options.
type Config struct {
	Costs proto.Costs
	// UnitShift sets the coherence unit to 2^UnitShift bytes (default:
	// the 4 KB page).  Sub-page units turn HLRC into the fine-grained
	// delayed-consistency multiple-writer protocol the paper mentions as
	// "a little better than SC for most granularities smaller than a
	// page" — access control is then assumed to be hardware (free), as
	// for SC.
	UnitShift uint
	// DropNthInvalidation, when n > 0, deliberately skips the n-th page
	// invalidation a grant would perform while still merging the grant's
	// vector clock — silent staleness that end-to-end verification can
	// miss but the consistency checker must catch.  A known-bad shim for
	// the checker's oracle tests; never set it outside tests.
	DropNthInvalidation int
	// Hetero carries the heterogeneity plane's adaptive-placement policy
	// knobs (Placement and Grain; the machine-model fields are consumed
	// by core/comm).  The zero value keeps the classic static protocol.
	Hetero hetero.Spec
}

// ackState tracks one node's diffs awaiting the homes' acks.
type ackState struct {
	pending int
	waiting bool
}

// Protocol is the HLRC protocol instance for one machine.
type Protocol struct {
	lazyrc.Core
	cfg Config

	homes []int32
	acks  []ackState

	// Hot-path scratch (single-threaded engine; nothing here survives a
	// yield point).  unitScratch holds the current copy of a unit while
	// it is diffed or patched; diffScratch collects modified words before
	// they are copied (right-sized) into the outgoing message; diffFree
	// recycles diff-message word slices after the home applies them.
	unitScratch []byte
	diffScratch []wdiff.Word
	diffFree    [][]wdiff.Word

	// Adaptive-placement state (heterogeneity plane).  With both policies
	// off, pageSpan is 1 and everything below is nil, collapsing cu() and
	// the policy hooks to the classic static protocol.
	adaptHomes    bool // migrate page homes toward dominant sharers
	adaptGrain    bool // demote falsely-shared pages to fine-grain units
	pageSpanShift uint // log2 table units per migratable page
	pageSpan      int64
	fine          []bool // per migratable page: demoted to fine units

	pstats  map[int64]*pageStat
	pending []int64 // candidate pages queued for the next barrier commit
	rehomer *hetero.Rehomer
	grains  *hetero.GrainSelector
	epoch   int64 // barrier-release count, the adaptation clock
}

// New creates an HLRC protocol with the given cost set and defaults.
func New(cfg Config) *Protocol {
	if cfg.Hetero.Grain == hetero.GrainAdaptive {
		if cfg.UnitShift != 0 && cfg.UnitShift != cfg.Hetero.FineShiftOrDefault() {
			panic("hlrc: explicit UnitShift conflicts with adaptive grain")
		}
		// The table runs at the fine unit; coarse pages span several
		// table units (see cu).
		cfg.UnitShift = cfg.Hetero.FineShiftOrDefault()
	}
	if cfg.UnitShift == 0 {
		cfg.UnitShift = DefaultUnitShift
	}
	if cfg.UnitShift > mem.PageShift+4 {
		panic("hlrc: coherence unit too large")
	}
	p := &Protocol{cfg: cfg, pageSpan: 1}
	if cfg.Hetero.Grain == hetero.GrainAdaptive {
		p.adaptGrain = true
		p.pageSpanShift = mem.PageShift - cfg.UnitShift
		p.pageSpan = 1 << p.pageSpanShift
		p.grains = hetero.NewGrainSelector(cfg.Hetero)
	}
	if cfg.Hetero.Placement == hetero.PlaceAdaptive {
		p.adaptHomes = true
	}
	p.Core = lazyrc.NewCore(cfg.Costs, cfg.UnitShift, p.pageSpan, cfg.DropNthInvalidation)
	return p
}

// Name identifies the protocol.
func (p *Protocol) Name() string {
	if p.adaptGrain {
		return fmt.Sprintf("hlrc-a%d", p.UnitBytes)
	}
	if p.UnitShift != DefaultUnitShift {
		return fmt.Sprintf("hlrc-%d", p.UnitBytes)
	}
	return "hlrc"
}

// unitOf maps an address to its coherence-unit number.
func (p *Protocol) unitOf(a int64) int64 { return a >> p.UnitShift }

// cu resolves the coherence unit containing table unit u: its first
// unit and its span in table units.  Without adaptive grain the span is
// always 1 and the coherence unit is the table unit — exactly the
// static protocol.  With adaptive grain a page still at coarse grain is
// one coherence unit spanning the whole page; a demoted page's units
// stand alone.
func (p *Protocol) cu(u int64) (int64, int64) {
	if p.pageSpan == 1 || p.fine[u>>p.pageSpanShift] {
		return u, 1
	}
	cs := u &^ (p.pageSpan - 1)
	span := p.pageSpan
	if cs+span > p.NUnits {
		span = p.NUnits - cs
	}
	return cs, span
}

// ppageOf maps a table unit to its migratable page (the granularity of
// home migration and grain demotion).
func (p *Protocol) ppageOf(u int64) int64 { return u >> p.pageSpanShift }

// newDiffBuf returns a word-diff slice (len 0) from the free list.
func (p *Protocol) newDiffBuf() []wdiff.Word {
	if n := len(p.diffFree); n > 0 {
		d := p.diffFree[n-1]
		p.diffFree = p.diffFree[:n-1]
		return d[:0]
	}
	return nil
}

// freeDiffBuf recycles a diff-message slice after the home applied it.
func (p *Protocol) freeDiffBuf(d []wdiff.Word) {
	if cap(d) > 0 {
		p.diffFree = append(p.diffFree, d)
	}
}

// Attach wires the environment and sizes the per-node state.
func (p *Protocol) Attach(env proto.Env) {
	p.Bind(env, policy{p})
	p.homes = make([]int32, p.NUnits)
	for i := int64(0); i < p.NUnits; i++ {
		// Homes are assigned per migratable page (pageSpanShift is 0
		// without adaptive grain), so coarse pages match page-HLRC's
		// round-robin distribution and stay uniform across their units.
		p.homes[i] = int32((i >> p.pageSpanShift) % int64(p.NProcs))
	}
	if p.adaptGrain {
		p.fine = make([]bool, (p.NUnits+p.pageSpan-1)>>p.pageSpanShift)
	}
	if p.adaptHomes {
		p.rehomer = hetero.NewRehomer(p.cfg.Hetero, p.NProcs)
	}
	if p.adaptHomes || p.adaptGrain {
		p.pstats = make(map[int64]*pageStat)
	}
	p.unitScratch = make([]byte, p.pageSpan*p.UnitBytes)
	p.acks = make([]ackState, p.NProcs)
	// Home nodes start with their pages mapped read-only (current copy).
	for pg := int64(0); pg < p.NUnits; pg++ {
		p.Nodes[p.homes[pg]].Mode[pg] = lazyrc.ReadOnly
	}
}

// AssignHome overrides the home of every page overlapping [addr,
// addr+size) — the way applications model first-touch/decomposed
// placement.  Must be called before the parallel phase.
func (p *Protocol) AssignHome(addr, size int64, node int) {
	if p.Env == nil {
		panic("hlrc: AssignHome before Attach")
	}
	first, last := p.unitOf(addr), p.unitOf(addr+size-1)
	if p.pageSpan > 1 {
		// Keep homes uniform across each migratable page by rounding the
		// range out to page boundaries.
		first &^= p.pageSpan - 1
		last |= p.pageSpan - 1
		if last >= p.NUnits {
			last = p.NUnits - 1
		}
	}
	buf := make([]byte, p.UnitBytes)
	for pg := first; pg <= last; pg++ {
		old := int(p.homes[pg])
		if old == node {
			continue
		}
		// Migrate already-initialized contents to the new home.
		p.Env.NodeMem(old).CopyOut(p.UnitBase(pg), buf)
		p.Env.NodeMem(node).CopyIn(p.UnitBase(pg), buf)
		p.Nodes[old].Mode[pg] = lazyrc.Invalid
		p.homes[pg] = int32(node)
		p.Nodes[node].Mode[pg] = lazyrc.ReadOnly
	}
}

// home reports the home node of page pg.
func (p *Protocol) home(pg int64) int { return int(p.homes[pg]) }

// policy is HLRC's side of the lazyrc seam: eager diff propagation to
// homes.  A separate type keeps the hooks off Protocol's method set.
type policy struct{ *Protocol }

func (p policy) Unit(u int64) (int64, int64) { return p.cu(u) }

// Current: the home copy is always current, since every diff is applied
// there before its release completes.
func (p policy) Current(node int, cs int64) bool { return p.home(cs) == node }

// Fetch requests the whole unit from its home; the reply's OnDeliver
// copies it into this node's frame and wakes the thread.
func (p policy) Fetch(th proto.Thread, cs, span int64) {
	me := th.Proc()
	req := &comm.Message{
		Src: me, Dst: p.home(cs), Kind: msgPageReq, Size: 16,
		Payload: pageReq{page: cs, requester: me}, NeedsHandler: true,
	}
	fetchStart := p.Env.Now()
	th.Send(stats.DataWait, req)
	th.BlockFor(stats.DataWait)
	p.Tr.PageFetch(fetchStart, p.Env.Now(), int32(me), cs)
}

// WriteFault twins the unit unless this node is its home, whose writes
// update the home copy in place.
func (p policy) WriteFault(th proto.Thread, cs, span int64) {
	if me := th.Proc(); p.home(cs) != me {
		p.MakeTwin(th, cs, span)
	} else if p.pstats != nil {
		p.noteHomeWrite(cs, me)
	}
}

// Flush diffs every dirty unit and sends the diff to its home.
func (p policy) Flush(th proto.Thread, units []int64, seq int32) {
	for _, cs := range units {
		p.flushPage(th, cs)
	}
}

// AwaitFlush waits for all outstanding diff acks, so the release is not
// visible before the homes hold its writes.
func (p policy) AwaitFlush(th proto.Thread, cat stats.Category) {
	a := &p.acks[th.Proc()]
	a.waiting = true
	for a.pending > 0 {
		th.BlockFor(cat)
	}
	a.waiting = false
}

// CountsInvalidationFlush: a unit flushed because a notice invalidates
// it is sent as a singleton interval with no write-notice count and no
// mprotect charge of its own.
func (p policy) CountsInvalidationFlush() bool { return false }

func (p policy) Invalidated(node int, cs int64) {}

func (p policy) Handle(h proto.HandlerCtx, m *comm.Message) int64 {
	switch m.Kind {
	case msgPageReq:
		return p.handlePageReq(h, m.Payload.(pageReq))
	case msgDiff:
		return p.handleDiff(h, m.Payload.(diffMsg))
	}
	panic(fmt.Sprintf("hlrc: unknown message kind %d", m.Kind))
}

// AtBarrier: barrier release is the adaptation point.  Every node is
// quiescent (intervals flushed, twins dropped, acks received), so home
// migrations and grain demotions commit here without racing any
// in-flight protocol traffic.
func (p policy) AtBarrier(h proto.HandlerCtx) int64 {
	if p.pstats == nil {
		return 0
	}
	return p.adaptAtBarrier(h)
}

// flushPage diffs one dirty coherence unit against its twin and sends
// the diff to the home (nothing to send if this node is the home).
func (p *Protocol) flushPage(th proto.Thread, cs int64) {
	me := th.Proc()
	if p.home(cs) == me {
		// Home writes update the home copy in place; no diff needed.
		return
	}
	ns := p.Nodes[me]
	_, span := p.cu(cs)
	twin, ok := ns.Twin[cs]
	if !ok {
		panic(fmt.Sprintf("hlrc: dirty unit %d has no twin on node %d", cs, me))
	}
	// Diff into the protocol scratch, then right-size into a recycled
	// message buffer (the message retains it until the home applies it
	// and hands it back via freeDiffBuf).
	cur := p.unitScratch[:span*p.UnitBytes]
	p.Env.NodeMem(me).CopyOut(p.UnitBase(cs), cur)
	p.diffScratch = wdiff.Append(p.diffScratch[:0], twin, cur)
	d := append(p.newDiffBuf(), p.diffScratch...)
	p.DropTwin(ns, cs)

	st := p.Env.Metrics()
	cost := proto.WordCost(p.Costs.DiffCompareQ4, span*p.UnitWords) +
		proto.WordCost(p.Costs.DiffWriteQ4, int64(len(d)))
	cost += p.Env.CacheTouch(me, p.UnitBase(cs), int(span*p.UnitBytes), false)
	st.AddDiff(me, cost)
	th.Charge(stats.Protocol, cost)
	st.Inc(me, stats.DiffsCreated, 1)
	st.Inc(me, stats.DiffWordsCompared, span*p.UnitWords)
	st.Inc(me, stats.DiffWordsWritten, int64(len(d)))
	p.Tr.DiffCreate(p.Env.Now(), int32(me), cs, int64(len(d)))

	p.acks[me].pending++
	th.Send(stats.Protocol, &comm.Message{
		Src: me, Dst: p.home(cs), Kind: msgDiff,
		Size:    16 + int64(len(d))*8,
		Payload: diffMsg{page: cs, from: me, words: d}, NeedsHandler: true,
	})
}

var _ proto.Protocol = (*Protocol)(nil)
var _ proto.TableProtocol = (*Protocol)(nil)
