package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestEqualTimestampSeqOrder pins the determinism contract at the queue
// level: events sharing a timestamp fire in scheduling order, no matter
// how they are interleaved with other timestamps, how wide the burst is,
// or whether they pass through the register, a calendar bucket, the far
// ring or the overflow heap.
func TestEqualTimestampSeqOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		want := make([]rec, len(raw))
		for i, r := range raw {
			// Cluster timestamps hard so most share a bucket, and push
			// slices of them into the ring and beyond it.
			at := Time(r % 7)
			if r%11 == 0 {
				at += calBuckets * 3
			}
			if r%13 == 0 {
				at += (farBlocks + 1) << calShift
			}
			i := i
			e.At(at, func() { fired = append(fired, rec{e.Now(), i}) })
			want[i] = rec{at, i}
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFarFutureOverflowTier drives events through the far ring, the
// overflow heap and their migration into the calendar: timestamps far
// beyond the window must still fire in (at, seq) order, including ties
// that straddle a rebase.
func TestFarFutureOverflowTier(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(42))
	var fired []Time
	n := 500
	ats := make([]Time, n)
	for i := 0; i < n; i++ {
		// Spread over 40 blocks, in the ring and beyond it, with heavy
		// duplication.
		ats[i] = Time(rng.Intn(40)) * calBuckets * Time(rng.Intn(3)*farBlocks/4+1)
		e.At(ats[i], func() { fired = append(fired, e.Now()) })
	}
	if got := e.PendingEvents(); got != n {
		t.Fatalf("PendingEvents() = %d, want %d", got, n)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ats, func(a, b int) bool { return ats[a] < ats[b] })
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := range ats {
		if fired[i] != ats[i] {
			t.Fatalf("firing %d at cycle %d, want %d", i, fired[i], ats[i])
		}
	}
}

// TestOverflowRebaseDuringRun schedules from inside callbacks so the
// calendar window has to slide repeatedly mid-run, with near and far
// events mixed at every step.
func TestOverflowRebaseDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []Time
	hops := 0
	var chain func()
	chain = func() {
		fired = append(fired, e.Now())
		hops++
		if hops < 50 {
			e.After(3, func() { fired = append(fired, e.Now()) })                       // near
			e.After(calBuckets+7, chain)                                                // next block
			e.After(calBuckets*5, func() { fired = append(fired, e.Now()) })            // far ring
			e.After((farBlocks+2)<<calShift, func() { fired = append(fired, e.Now()) }) // overflow heap
		}
	}
	e.At(0, chain)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(fired, func(a, b int) bool { return fired[a] < fired[b] }) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 1+49*4 {
		t.Fatalf("fired %d events, want %d", len(fired), 1+49*4)
	}
}

// TestSameTimeSchedulingFromCallback pins the subtle recycling-era
// ordering case: a callback that schedules more events at the current
// timestamp must see them fire after everything already queued at that
// timestamp, in scheduling order.
func TestSameTimeSchedulingFromCallback(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(5, func() {
		order = append(order, 0)
		e.At(5, func() { order = append(order, 2) })
		e.After(0, func() { order = append(order, 3) })
	})
	e.At(5, func() { order = append(order, 1) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (same-time events fire in scheduling order)", order, want)
		}
	}
}

// TestRunTwice checks that a drained engine accepts a second batch of
// events and a second Run: the register, calendar, and overflow tiers
// must all survive a drain.
func TestRunTwice(t *testing.T) {
	e := NewEngine()
	const n = 64
	count := 0
	for i := 0; i < n; i++ {
		e.At(Time(i%7), func() { count++ })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("fired %d events, want %d", count, n)
	}
	if got := e.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents() = %d after drain, want 0", got)
	}
	for i := 0; i < n; i++ {
		e.At(e.Now()+Time(i), func() { count++ })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2*n {
		t.Fatalf("fired %d events total, want %d", count, 2*n)
	}
}

// queueOffset draws an insert offset from now that lands in every tier
// of the queue: the calendar, exact block edges, the far ring, beyond
// the ring, jumps several rings wide, and ties with earlier inserts.
func queueOffset(rng *rand.Rand, now Time, pending []event) Time {
	blockEnd := (now>>calShift + 1) << calShift
	switch rng.Intn(12) {
	case 0, 1:
		return Time(rng.Intn(16)) // near
	case 2:
		return Time(rng.Intn(calBuckets * 2)) // window and next block
	case 3: // a block's first or last cycle, a few blocks out
		k := Time(rng.Intn(4)) << calShift
		return blockEnd - now + k - Time(rng.Intn(2))
	case 4, 5: // anywhere in the ring
		return Time(rng.Intn(farBlocks)) << calShift
	case 6: // just inside or just beyond the ring's horizon
		return Time(farBlocks-1+rng.Intn(3))<<calShift + Time(rng.Intn(calBuckets))
	case 7: // beyond the ring
		return Time(farBlocks+rng.Intn(3*farBlocks)) << calShift
	case 8: // a jump several rings wide
		return Time(rng.Intn(10)*farBlocks) << calShift
	default: // a tie with a pending event, wherever it is queued
		if len(pending) > 0 {
			if at := pending[rng.Intn(len(pending))].at; at >= now {
				return at - now
			}
		}
		return 0
	}
}

// TestCalQueueRandomizedOrder hammers the raw queue with random
// insert/pop interleavings across all three tiers and checks that the
// popped sequence is exactly the (at, seq) sort of what went in, and
// that peekAt always reports the next pop's timestamp.  It also checks
// that the trials reached the heap, the ring, a ring wrap and a base
// jump wider than the ring.
func TestCalQueueRandomizedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sawHeap, sawRing, sawWrap, sawJump bool
	for trial := 0; trial < 100; trial++ {
		var q calQueue
		q.init()
		now := Time(0)
		var seq uint64
		var expect, got []event
		pop := func() {
			peek, ok := q.peekAt()
			prev := q.cur
			ev, ok2 := q.popNext()
			if !ok || !ok2 {
				t.Fatalf("trial %d: queue empty with len %d", trial, q.len())
			}
			if ev.at != peek {
				t.Fatalf("trial %d: peekAt = %d, popped %d", trial, peek, ev.at)
			}
			if ev.at < now {
				t.Fatalf("trial %d: time went backwards: %d < %d", trial, ev.at, now)
			}
			sawJump = sawJump || q.cur-prev >= farBlocks
			now = ev.at
			got = append(got, *ev)
		}
		for op := 0; op < 600; op++ {
			if rng.Intn(3) > 0 || q.len() == 0 {
				seq++
				ev := event{at: now + queueOffset(rng, now, expect), seq: seq}
				expect = append(expect, ev)
				q.insert(ev, now)
			} else {
				pop()
			}
			sawHeap = sawHeap || len(q.overflow) > 0
			sawRing = sawRing || q.far > 0
			if q.far > 0 && q.nextFar()&(farBlocks-1) < (q.cur+1)&(farBlocks-1) {
				sawWrap = true
			}
		}
		for q.len() > 0 {
			pop()
		}
		if _, ok := q.popNext(); ok {
			t.Fatalf("trial %d: popNext returned an event from an empty queue", trial)
		}
		sort.Slice(expect, func(a, b int) bool { return expect[a].before(&expect[b]) })
		if len(got) != len(expect) {
			t.Fatalf("trial %d: popped %d events, inserted %d", trial, len(got), len(expect))
		}
		for i := range expect {
			if got[i].at != expect[i].at || got[i].seq != expect[i].seq {
				t.Fatalf("trial %d: pop %d = (%d,%d), want (%d,%d)",
					trial, i, got[i].at, got[i].seq, expect[i].at, expect[i].seq)
			}
		}
	}
	if !sawHeap || !sawRing || !sawWrap || !sawJump {
		t.Fatalf("tiers not all driven: heap %v, ring %v, ring wrap %v, jump %v",
			sawHeap, sawRing, sawWrap, sawJump)
	}
}

// TestHeapRingCalendarHandover files three events at one timestamp T,
// one in each tier as the window advances toward it: the first while T
// lies beyond the ring (heap), the second once the ring covers T, the
// third once T's block is current (calendar).  They must pop in
// insertion order, after an earlier event of T's block.
func TestHeapRingCalendarHandover(t *testing.T) {
	var q calQueue
	q.init()
	var seq uint64
	ins := func(at, now Time) {
		seq++
		q.insert(event{at: at, seq: seq}, now)
	}
	popAt := func(want Time) uint64 {
		t.Helper()
		ev, ok := q.popNext()
		if !ok || ev.at != want {
			t.Fatalf("popNext = %v, %v; want an event at %d", ev, ok, want)
		}
		return ev.seq
	}
	blkT := int64(farBlocks + 2)
	T := blkT<<calShift + 5
	ins(T, 0) // seq 1
	if len(q.overflow) != 1 {
		t.Fatalf("event beyond the ring not in the heap: heap %d, ring %d", len(q.overflow), q.far)
	}
	x := Time(3 << calShift)
	ins(x, 0) // seq 2: ring
	popAt(x)
	ins(T, x) // seq 3: the ring now reaches T's block
	if q.far != 1 || len(q.overflow) != 1 {
		t.Fatalf("second event at T not in the ring: heap %d, ring %d", len(q.overflow), q.far)
	}
	edge := blkT << calShift
	ins(edge, x) // seq 4: first cycle of T's block
	popAt(edge)  // rebases onto T's block
	if q.cur != blkT || q.far != 0 || len(q.overflow) != 0 {
		t.Fatalf("rebase left cur %d, ring %d, heap %d", q.cur, q.far, len(q.overflow))
	}
	ins(T, edge) // seq 5: calendar
	for _, want := range []uint64{1, 3, 5} {
		if got := popAt(T); got != want {
			t.Fatalf("event at T popped seq %d, want %d", got, want)
		}
	}
}

// genHandler is a cancellable timer in the transport's style: each arm
// bumps the generation carried in the event's arg, a cancel bumps it
// too, and an event whose generation is stale fires as a no-op.
type genHandler struct {
	e       *Engine
	gen     int64
	pending bool
	live    int // events that fired with the current generation
	log     *genLog
}

// genLog numbers every arm across handlers and records every dispatch.
type genLog struct {
	seq        int
	dispatched []dispatch
}

type dispatch struct {
	at  Time
	seq int
}

func (h *genHandler) arm(at Time) {
	h.gen++
	h.log.seq++
	h.pending = true
	h.e.AtHandler(at, h, h.gen<<20|int64(h.log.seq))
}

func (h *genHandler) HandleEvent(now Time, arg int64) {
	h.log.dispatched = append(h.log.dispatched, dispatch{now, int(arg & (1<<20 - 1))})
	if arg>>20 != h.gen {
		return
	}
	h.pending = false
	h.live++
}

// TestStaleGenerationHandlerEvents arms, re-arms and cancels
// generation-checked handler events at delays spread over all three
// tiers.  Every event, stale or live, must dispatch in (at, seq) order,
// and exactly the events neither superseded nor cancelled must run.
func TestStaleGenerationHandlerEvents(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(3))
	var log genLog
	var scheduled []dispatch
	hs := make([]*genHandler, 8)
	for i := range hs {
		hs[i] = &genHandler{e: e, log: &log}
	}
	delays := []Time{1, 7, calBuckets - 1, calBuckets, 3 * calBuckets,
		(farBlocks - 1) << calShift, farBlocks << calShift, (farBlocks + 9) << calShift}
	arms, superseded, cancelled := 0, 0, 0
	var step func()
	steps := 0
	step = func() {
		if steps++; steps > 400 {
			return
		}
		h := hs[rng.Intn(len(hs))]
		if rng.Intn(3) == 0 {
			if h.pending {
				cancelled++
			}
			h.pending = false
			h.gen++
		} else {
			if h.pending {
				superseded++
			}
			arms++
			at := e.Now() + delays[rng.Intn(len(delays))]
			h.arm(at)
			scheduled = append(scheduled, dispatch{at, log.seq})
		}
		e.After(Time(rng.Intn(3*calBuckets)), step)
	}
	e.At(0, step)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(scheduled, func(a, b int) bool {
		if scheduled[a].at != scheduled[b].at {
			return scheduled[a].at < scheduled[b].at
		}
		return scheduled[a].seq < scheduled[b].seq
	})
	got := log.dispatched
	if len(got) != len(scheduled) {
		t.Fatalf("%d handler events dispatched, %d scheduled", len(got), len(scheduled))
	}
	for i := range got {
		if got[i] != scheduled[i] {
			t.Fatalf("dispatch %d = %+v, want %+v", i, got[i], scheduled[i])
		}
	}
	live := 0
	for _, h := range hs {
		live += h.live
	}
	if want := arms - superseded - cancelled; live != want || cancelled == 0 || superseded == 0 {
		t.Fatalf("%d live firings, want %d (%d arms, %d superseded, %d cancelled)",
			live, want, arms, superseded, cancelled)
	}
}

// TestEngineEventsNoAllocs is the engine's allocation gate: in steady
// state a self-rescheduling chain (the register path), a chain that
// files events into the calendar, the far ring and the overflow heap on
// every hop, and a chain that files a burst of simultaneous events into
// a few calendar buckets on every hop must not allocate.
func TestEngineEventsNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delays []Time
	}{
		{"chain", []Time{1}},
		{"far-tier", []Time{3, calBuckets + 1, 40 * calBuckets, (farBlocks + 5) << calShift}},
		{"fanout", func() []Time { // 64 events across 8 timestamps per hop
			d := []Time{8}
			for j := 0; j < 64; j++ {
				d = append(d, Time(j%8))
			}
			return d
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			hops := 0
			var hop func()
			hop = func() {
				if hops > 0 {
					hops--
					for _, d := range tc.delays[1:] {
						e.After(d, func() {})
					}
					e.After(tc.delays[0], hop)
				}
			}
			run := func() {
				hops = 64
				e.After(0, hop)
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pools and the heap's backing array
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Fatalf("%s: %.1f allocs per run, want 0", tc.name, allocs)
			}
		})
	}
}
