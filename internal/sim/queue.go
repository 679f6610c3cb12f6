package sim

import "math/bits"

// Event kinds.  The queue stores value-typed records instead of heap
// closures; the kind selects how (obj, arg) are interpreted at dispatch,
// so the dominant step/message events carry a receiver pointer and an
// integer instead of a fresh closure per event.
const (
	evFunc    uint8 = iota // obj = func()
	evStep    uint8 = iota // obj = *Coro to resume
	evHandler uint8 = iota // obj = EventHandler, receives arg
)

// event is one scheduled record.  Events with equal timestamps fire in
// scheduling order (seq), which keeps runs deterministic.  obj holds a
// pointer-shaped value (func, *Coro, or an interface backed by a
// pointer), so storing it in the `any` never allocates.
type event struct {
	at   Time
	seq  uint64
	arg  int64
	obj  any
	kind uint8
}

// before orders events by (at, seq) — the engine's total order.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

const (
	// calBuckets is the calendar window width in cycles, and the width of
	// one far-tier block.  Simulated latencies (cache misses, packet hops,
	// poll quanta) are a few cycles to a few thousand, so nearly every
	// insert lands in the window or the next block.  Must be a power of
	// two and a multiple of 64 for the occupancy bitmap.
	calShift   = 12
	calBuckets = 1 << calShift
	calWords   = calBuckets / 64

	// farBlocks is the far tier's ring size in blocks: it reaches about
	// farBlocks*calBuckets (1 M) cycles ahead, which covers nearly every
	// retransmission timeout (the transport caps its backoff at 2^20
	// cycles).  Must be a power of two and a multiple of 64.
	farBlocks = 256
	farWords  = farBlocks / 64
)

// calQueue is a three-tier priority queue specialised for a
// discrete-event clock.  Time is cut into aligned blocks of calBuckets
// cycles.
//
//   - The calendar holds the current block, [base, base+calBuckets), in
//     width-1 buckets; each bucket holds the events for exactly one
//     timestamp in append order, which IS seq order, so insert and
//     pop-earliest are O(1) plus a bitmap scan.
//   - The far tier is a ring of the next farBlocks-1 blocks.  Each block
//     keeps its events unsorted in append (seq) order; insert is an
//     append.  When the calendar drains, rebase makes the earliest
//     occupied block current and spreads its events over the buckets.
//   - The overflow heap, a conventional (at, seq) min-heap, holds events
//     that lay beyond the ring when they were inserted.
//
// A block's heap events always carry smaller seqs than its ring events:
// an event goes to the heap only while its block lies beyond the ring,
// and the ring's horizon only moves forward, so every later insert into
// that block lands in the ring.  rebase therefore files a block's heap
// events before its ring events, and each bucket stays in seq order.
//
// Invariants:
//   - every queued event has at >= the engine clock, and base <= the
//     engine clock whenever an insert can occur (rebase targets the
//     current clock's block on the insert path; the pop path may rebase
//     ahead of the clock, but the caller advances the clock to the popped
//     event's timestamp before any new insert).
//   - ring slot b%farBlocks only holds events of block b, for
//     cur < b < cur+farBlocks; slot cur%farBlocks is empty.
//   - no heap event lies in the current block.
//   - no occupied bucket lies below offset hint.
type calQueue struct {
	base  Time  // start of the current block: cur << calShift
	cur   int64 // current block number
	hint  int   // scan floor: no occupied bucket below this offset
	count int   // events in buckets
	far   int   // events in the ring
	n     int   // events in all three tiers

	buckets [][]event
	heads   []int32 // per-bucket consumed prefix (events already popped)
	occ     [calWords]uint64

	ring    [farBlocks][]event
	ringMin [farBlocks]Time // earliest timestamp in each occupied block
	ringOcc [farWords]uint64

	// pool recycles drained bucket and block slices so the steady-state
	// event loop allocates nothing even as the window slides across fresh
	// offsets.
	pool [][]event

	overflow []event // min-heap by (at, seq): beyond the ring
}

func (q *calQueue) init() {
	q.buckets = make([][]event, calBuckets)
	q.heads = make([]int32, calBuckets)
	q.hint = calBuckets
	// Seed the pool with slices carved from one array, so the first
	// buckets and blocks a run fills cost one allocation, not one each.
	const seed, width = 32, 4
	backing := make([]event, seed*width)
	q.pool = make([][]event, 0, 2*seed)
	for i := 0; i < seed; i++ {
		q.pool = append(q.pool, backing[i*width:i*width:(i+1)*width])
	}
}

func (q *calQueue) len() int { return q.n }

// insert files ev.  now is the engine clock, used as the rebase target
// when the calendar is empty and ev lies beyond the stale window.
func (q *calQueue) insert(ev event, now Time) {
	q.n++
	d := ev.at - q.base
	if d >= calBuckets && q.count == 0 {
		// Window is empty and stale; slide it up to the clock so the
		// common near-future insert stays in the calendar.
		if b := now >> calShift; b > q.cur {
			q.rebase(b)
			d = ev.at - q.base
		}
	}
	if d < calBuckets {
		q.put(int(d), ev)
		return
	}
	if b := ev.at >> calShift; b < q.cur+farBlocks {
		q.putFar(b, ev)
		return
	}
	q.pushOverflow(ev)
}

// slice returns a recycled empty event slice, or a fresh one.
func (q *calQueue) slice() []event {
	if n := len(q.pool); n > 0 {
		b := q.pool[n-1]
		q.pool = q.pool[:n-1]
		return b
	}
	return make([]event, 0, 4)
}

// put appends ev to bucket i and marks it occupied.
func (q *calQueue) put(i int, ev event) {
	b := q.buckets[i]
	if b == nil {
		b = q.slice()
	}
	q.buckets[i] = append(b, ev)
	q.occ[i>>6] |= 1 << uint(i&63)
	q.count++
	if i < q.hint {
		q.hint = i
	}
}

// putFar appends ev to ring block blk.
func (q *calQueue) putFar(blk int64, ev event) {
	s := int(blk & (farBlocks - 1))
	b := q.ring[s]
	if b == nil {
		b = q.slice()
		q.ringMin[s] = ev.at
		q.ringOcc[s>>6] |= 1 << uint(s&63)
	} else if ev.at < q.ringMin[s] {
		q.ringMin[s] = ev.at
	}
	q.ring[s] = append(b, ev)
	q.far++
}

// scan returns the offset of the earliest occupied bucket.  Requires
// count > 0.
func (q *calQueue) scan() int {
	i := q.hint
	w := i >> 6
	word := q.occ[w] &^ (1<<uint(i&63) - 1)
	for word == 0 {
		w++
		word = q.occ[w]
	}
	i = w<<6 | bits.TrailingZeros64(word)
	q.hint = i
	return i
}

// nextFar returns the earliest occupied ring block.  Requires far > 0.
func (q *calQueue) nextFar() int64 {
	first := int((q.cur + 1) & (farBlocks - 1))
	w := first >> 6
	word := q.ringOcc[w] &^ (1<<uint(first&63) - 1)
	// The scan wraps once around the ring; slot cur is always empty, so
	// revisiting the first word's low bits finds only blocks past the
	// wrap.
	for word == 0 {
		w = (w + 1) & (farWords - 1)
		word = q.ringOcc[w]
	}
	s := w<<6 | bits.TrailingZeros64(word)
	return q.cur + 1 + int64((s-first)&(farBlocks-1))
}

// nextBlock returns the earliest block holding a ring or heap event.
// Requires count == 0 and n > 0.
func (q *calQueue) nextBlock() int64 {
	blk := int64(-1)
	if q.far > 0 {
		blk = q.nextFar()
	}
	if len(q.overflow) > 0 {
		if h := q.overflow[0].at >> calShift; blk < 0 || h < blk {
			blk = h
		}
	}
	return blk
}

// popNext removes the earliest event and returns a pointer to it,
// rebasing onto the next occupied block when the calendar is empty.
// The pointed-to slot (a bucket element or the scratch register) stays
// intact until the next insert or pop: callers must consume the fields
// before mutating the queue.
func (q *calQueue) popNext() (*event, bool) {
	for {
		if q.count > 0 {
			i := q.scan()
			b := q.buckets[i]
			h := q.heads[i]
			ev := &b[h]
			h++
			if int(h) == len(b) {
				// Bucket drained: recycle its storage and clear the bit.
				// The popped slot's memory stays readable until a later
				// insert reuses the pooled slice.
				q.buckets[i] = nil
				q.heads[i] = 0
				q.pool = append(q.pool, b[:0])
				q.occ[i>>6] &^= 1 << uint(i&63)
			} else {
				q.heads[i] = h
			}
			q.count--
			q.n--
			return ev, true
		}
		if q.n == 0 {
			return nil, false
		}
		// Calendar empty, later tiers not: make the earliest occupied
		// block current.  Safe even though this may move base past the
		// engine clock — the caller advances the clock to the returned
		// event's timestamp before the next insert.
		q.rebase(q.nextBlock())
	}
}

// peekAt reports the earliest queued timestamp without removing anything.
func (q *calQueue) peekAt() (Time, bool) {
	if q.count > 0 {
		return q.base + Time(q.scan()), true
	}
	if q.n == 0 {
		return 0, false
	}
	at := Time(-1)
	if q.far > 0 {
		at = q.ringMin[q.nextFar()&(farBlocks-1)]
	}
	if len(q.overflow) > 0 && (at < 0 || q.overflow[0].at < at) {
		at = q.overflow[0].at
	}
	return at, true
}

// rebase makes block blk current: it files blk's heap events, then its
// ring events, into the buckets.  Requires count == 0 and no queued
// event before blk.
func (q *calQueue) rebase(blk int64) {
	q.cur = blk
	q.base = blk << calShift
	q.hint = calBuckets
	horizon := q.base + calBuckets
	for len(q.overflow) > 0 && q.overflow[0].at < horizon {
		ev := q.popOverflow()
		q.put(int(ev.at-q.base), ev)
	}
	s := int(blk & (farBlocks - 1))
	if b := q.ring[s]; b != nil {
		for i := range b {
			q.put(int(b[i].at-q.base), b[i])
		}
		q.far -= len(b)
		q.ring[s] = nil
		q.ringOcc[s>>6] &^= 1 << uint(s&63)
		q.pool = append(q.pool, b[:0])
	}
}

func (q *calQueue) pushOverflow(ev event) {
	q.overflow = append(q.overflow, ev)
	i := len(q.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.overflow[i].before(&q.overflow[parent]) {
			break
		}
		q.overflow[i], q.overflow[parent] = q.overflow[parent], q.overflow[i]
		i = parent
	}
}

func (q *calQueue) popOverflow() event {
	top := q.overflow[0]
	n := len(q.overflow) - 1
	q.overflow[0] = q.overflow[n]
	q.overflow[n] = event{}
	q.overflow = q.overflow[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.overflow[l].before(&q.overflow[min]) {
			min = l
		}
		if r < n && q.overflow[r].before(&q.overflow[min]) {
			min = r
		}
		if min == i {
			return top
		}
		q.overflow[i], q.overflow[min] = q.overflow[min], q.overflow[i]
		i = min
	}
}
