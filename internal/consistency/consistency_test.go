package consistency

import (
	"math/rand"
	"strings"
	"testing"

	"swsm/internal/proto"
)

// rcHistory is a little DSL for hand-built histories: each call records
// at an auto-incrementing cycle so reports stay readable.
type history struct {
	r  *Recorder
	cy int64
}

func newHistory(model proto.Model, procs int) *history {
	return &history{r: NewRecorder(model, procs)}
}

func (h *history) tick() int64 { h.cy += 10; return h.cy }

func (h *history) store(p int32, a int64, v uint32) { h.r.Access(p, a, 4, true, uint64(v), h.tick()) }
func (h *history) load(p int32, a int64, v uint32)  { h.r.Access(p, a, 4, false, uint64(v), h.tick()) }
func (h *history) acq(p int32, l int)               { h.r.LockAcquire(p, l, h.tick()) }
func (h *history) rel(p int32, l int)               { h.r.LockRelease(p, l, h.tick()) }
func (h *history) barrier(ps ...int32) {
	for _, p := range ps {
		h.r.BarrierArrive(p, 0, h.tick())
	}
	for _, p := range ps {
		h.r.BarrierDepart(p, 0, h.tick())
	}
}

func TestRCStaleReadThroughLockCaught(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.r.Init(0x1000, 4, 0)
	h.store(0, 0x1000, 7)
	h.rel(0, 3)
	h.acq(1, 3)
	h.load(1, 0x1000, 0) // stale init value after a release→acquire edge
	v := h.r.Check()
	if v == nil {
		t.Fatal("stale read through a lock edge not caught")
	}
	if v.Proc != 1 || v.Addr != 0x1000 || v.Got != 0 {
		t.Fatalf("violation misattributed: %+v", v)
	}
	msg := v.Error()
	for _, want := range []string{"proc 1", "0x1000", "release(lock 3)", "acquire(lock 3)", "store 0x7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
}

func TestRCConcurrentReadsPermitted(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.store(0, 0x1000, 7)
	h.load(1, 0x1000, 0) // no sync: old value fine
	h.load(1, 0x1000, 7) // new value also fine
	h.load(1, 0x1000, 0) // even going "backwards": unordered
	if v := h.r.Check(); v != nil {
		t.Fatalf("concurrent reads flagged: %v", v)
	}
}

func TestRCCoveredWriteCaught(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.store(0, 0x40, 1)
	h.store(0, 0x40, 2) // covers the first in program order
	h.rel(0, 0)
	h.acq(1, 0)
	h.load(1, 0x40, 1) // the covered value: stale
	v := h.r.Check()
	if v == nil {
		t.Fatal("covered-write read not caught")
	}
	if !strings.Contains(v.Error(), "stale") {
		t.Errorf("want a staleness diagnosis, got: %v", v)
	}
	// The fresh value is fine.
	h2 := newHistory(proto.ModelRC, 2)
	h2.store(0, 0x40, 1)
	h2.store(0, 0x40, 2)
	h2.rel(0, 0)
	h2.acq(1, 0)
	h2.load(1, 0x40, 2)
	if v := h2.r.Check(); v != nil {
		t.Fatalf("frontier read flagged: %v", v)
	}
}

func TestRCBarrierOrders(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.r.Init(0x80, 4, 5)
	h.store(0, 0x80, 9)
	h.barrier(0, 1)
	h.load(1, 0x80, 5) // init value is dead after the barrier
	v := h.r.Check()
	if v == nil {
		t.Fatal("stale read across a barrier not caught")
	}
	if !strings.Contains(v.Error(), "barrier") {
		t.Errorf("report should cite the barrier path:\n%v", v)
	}
	// Reading the fresh value is fine.
	h2 := newHistory(proto.ModelRC, 2)
	h2.r.Init(0x80, 4, 5)
	h2.store(0, 0x80, 9)
	h2.barrier(0, 1)
	h2.load(1, 0x80, 9)
	if v := h2.r.Check(); v != nil {
		t.Fatalf("fresh read flagged: %v", v)
	}
}

func TestRCThinAirCaught(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.store(0, 0x20, 1)
	h.load(1, 0x20, 42) // nobody ever wrote 42
	v := h.r.Check()
	if v == nil {
		t.Fatal("thin-air value not caught")
	}
	if !strings.Contains(v.Error(), "never written") {
		t.Errorf("want thin-air diagnosis, got: %v", v)
	}
}

func TestRCTransitiveLockChain(t *testing.T) {
	// P0 st → rel(0); P1 acq(0) rel(1); P2 acq(1) ld — order is carried
	// transitively, so the stale read must be caught and the path must
	// traverse both locks.
	h := newHistory(proto.ModelRC, 3)
	h.store(0, 0x10, 3)
	h.rel(0, 0)
	h.acq(1, 0)
	h.rel(1, 1)
	h.acq(2, 1)
	h.load(2, 0x10, 0)
	v := h.r.Check()
	if v == nil {
		t.Fatal("transitively ordered stale read not caught")
	}
	msg := v.Error()
	if !strings.Contains(msg, "lock 0") || !strings.Contains(msg, "lock 1") {
		t.Errorf("path should traverse both locks:\n%s", msg)
	}
}

func TestSCLastWriteRule(t *testing.T) {
	h := newHistory(proto.ModelSC, 2)
	h.r.Init(0x10, 4, 1)
	h.load(1, 0x10, 1) // init before any write
	h.store(0, 0x10, 2)
	h.load(1, 0x10, 2)
	if v := h.r.Check(); v != nil {
		t.Fatalf("conforming SC history flagged: %v", v)
	}
	h2 := newHistory(proto.ModelSC, 2)
	h2.store(0, 0x10, 2)
	h2.load(1, 0x10, 0) // SC forbids the old value with no sync at all
	v := h2.r.Check()
	if v == nil {
		t.Fatal("SC stale read not caught")
	}
	if v.Model != proto.ModelSC {
		t.Fatalf("violation model = %v", v.Model)
	}
}

func TestEightByteAccessesSplit(t *testing.T) {
	h := newHistory(proto.ModelSC, 2)
	h.r.Access(0, 0x100, 8, true, 0x11111111_22222222, h.tick())
	h.r.Access(1, 0x100, 4, false, 0x22222222, h.tick()) // low half
	h.r.Access(1, 0x104, 4, false, 0x11111111, h.tick()) // high half
	if v := h.r.Check(); v != nil {
		t.Fatalf("split 8-byte access flagged: %v", v)
	}
	h2 := newHistory(proto.ModelSC, 2)
	h2.r.Access(0, 0x100, 8, true, 0x11111111_22222222, h2.tick())
	h2.r.Access(1, 0x100, 8, false, 0x11111111_33333333, h2.tick()) // bad low half
	v := h2.r.Check()
	if v == nil {
		t.Fatal("bad half of an 8-byte load not caught")
	}
	if v.Addr != 0x100 {
		t.Fatalf("violation should name the stale half's word address, got 0x%x", v.Addr)
	}
}

func TestInitF64SplitsWords(t *testing.T) {
	h := newHistory(proto.ModelRC, 1)
	h.r.Init(0x200, 8, 0xAAAAAAAA_BBBBBBBB)
	h.load(0, 0x200, 0xBBBBBBBB)
	h.load(0, 0x204, 0xAAAAAAAA)
	if v := h.r.Check(); v != nil {
		t.Fatalf("split init flagged: %v", v)
	}
}

func TestCompactionKeepsChecking(t *testing.T) {
	// Push one word far past compactLimit with synchronized handoffs and
	// confirm the checker still accepts the live value and still rejects
	// a long-dead one.
	h := newHistory(proto.ModelRC, 2)
	var last uint32
	for i := 0; i < 3*compactLimit; i++ {
		last = uint32(i + 1)
		h.store(0, 0x10, last)
		h.rel(0, 0)
		h.acq(1, 0)
		h.load(1, 0x10, last)
		h.rel(1, 0)
		h.acq(0, 0)
	}
	if v := h.r.Check(); v != nil {
		t.Fatalf("synchronized ping-pong flagged: %v", v)
	}
	h2 := newHistory(proto.ModelRC, 2)
	for i := 0; i < 3*compactLimit; i++ {
		h2.store(0, 0x10, uint32(i+1))
		h2.rel(0, 0)
		h2.acq(1, 0)
		h2.load(1, 0x10, uint32(i+1))
		h2.rel(1, 0)
		h2.acq(0, 0)
	}
	h2.load(1, 0x10, 1) // value from thousands of handoffs ago
	if v := h2.r.Check(); v == nil {
		t.Fatal("ancient value accepted after compaction")
	}
}

func TestBarrierEpisodesDistinct(t *testing.T) {
	// Two barrier episodes on the same id: a store before episode 1 must
	// be visible after it; a store between episodes must be visible
	// after episode 2 but may be missed after episode 1.
	h := newHistory(proto.ModelRC, 2)
	h.store(0, 0x30, 1)
	h.barrier(0, 1)
	h.load(1, 0x30, 1)
	h.store(1, 0x30, 2)
	h.barrier(0, 1)
	h.load(0, 0x30, 2)
	if v := h.r.Check(); v != nil {
		t.Fatalf("well-ordered two-episode history flagged: %v", v)
	}
	h2 := newHistory(proto.ModelRC, 2)
	h2.store(0, 0x30, 1)
	h2.barrier(0, 1)
	h2.store(1, 0x30, 2)
	h2.barrier(0, 1)
	h2.load(0, 0x30, 1) // covered by episode-2-ordered store of 2
	if v := h2.r.Check(); v == nil {
		t.Fatal("stale read after second barrier episode not caught")
	}
}

func TestNilRecorderIsFreeAndSafe(t *testing.T) {
	var r *Recorder
	r.Init(0, 4, 0)
	r.Access(0, 0, 4, false, 0, 0)
	r.LockAcquire(0, 0, 0)
	r.LockRelease(0, 0, 0)
	r.BarrierArrive(0, 0, 0)
	r.BarrierDepart(0, 0, 0)
	if v := r.Check(); v != nil {
		t.Fatal("nil recorder produced a violation")
	}
	if s := r.CheckSummary(); s != (Summary{}) {
		t.Fatalf("nil recorder summary = %+v", s)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Access(0, 0x1000, 4, true, 7, 100)
		r.LockAcquire(0, 1, 100)
		r.LockRelease(0, 1, 100)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder hooks allocate: %v allocs/op", allocs)
	}
}

func TestSummaryCounts(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.r.Access(0, 0x100, 8, true, 0, h.tick()) // 2 word stores
	h.store(0, 0x10, 1)
	h.load(1, 0x10, 1)
	h.rel(0, 0)
	h.acq(1, 0)
	if v := h.r.Check(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	s := h.r.CheckSummary()
	if s.Stores != 3 || s.Loads != 1 || s.SyncOps != 2 || s.Locations != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if h.r.Events() != 5 {
		t.Fatalf("events = %d, want 5", h.r.Events())
	}
}

func TestCheckerStopsAtFirstViolation(t *testing.T) {
	h := newHistory(proto.ModelRC, 2)
	h.store(0, 0x20, 1)
	h.load(1, 0x20, 42) // thin air: the first violation
	h.load(1, 0x20, 43) // would be a second one
	h.store(0, 0x24, 2)
	h.rel(0, 0)
	v := h.r.Check()
	if v == nil || v.Got != 42 {
		t.Fatalf("want the first violation (got 0x2a), got %v", v)
	}
	if h.r.Events() != 5 {
		t.Fatalf("events = %d, want 5: hooks after a violation still count", h.r.Events())
	}
	if s := h.r.CheckSummary(); s.Loads != 1 || s.Stores != 1 || s.SyncOps != 0 || s.Locations != 0 {
		t.Fatalf("summary = %+v: the checker must do no work after its first violation", s)
	}
}

// TestRecorderSteadyStateAllocs pins the enabled recorder's fast path:
// loads and stores to words it has already seen, with no sync operation
// in between, allocate nothing — no clock copy per store, no event log,
// no map entry, no string.  A word's history keeps its slab region
// across compaction, so once a warm-up has grown every region, stores
// append in place.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	const procs, words = 4, 16
	r := NewRecorder(proto.ModelRC, procs)
	var now int64
	var vals [words]uint32
	pass := func() {
		for p := int32(0); p < procs; p++ {
			for w := 0; w < words; w++ {
				now++
				r.Access(p, int64(w)*4, 4, false, uint64(vals[w]), now)
				now++
				vals[w] = uint32(now)
				r.Access(p, int64(w)*4, 4, true, uint64(vals[w]), now)
			}
		}
	}
	barrier := func() {
		for p := int32(0); p < procs; p++ {
			now++
			r.BarrierArrive(p, 0, now)
		}
		for p := int32(0); p < procs; p++ {
			now++
			r.BarrierDepart(p, 0, now)
		}
	}
	barrier()
	for i := 0; i < 128; i++ { // grow each word's region to 512 records
		pass()
	}
	barrier()
	pass() // compaction trims every history to its post-barrier frontier
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("checked loads and stores allocate: %v allocs per pass", allocs)
	}
	if v := r.Check(); v != nil {
		t.Fatal(v)
	}
}

// phases records a seeded history on h: in each phase every processor
// stores a stripe of words, meets the others at a barrier and loads its
// neighbour's stripe, then hands a lock round a ring.  stale, if set,
// makes the last load return an overwritten value, a violation.
func phases(h *history, procs int32, words, rounds int, seed int64, stale bool) {
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint32, int(procs)*words)
	addr := func(i int) int64 { return 0x100 + int64(i)*4 }
	for k := 0; k < rounds; k++ {
		for p := int32(0); p < procs; p++ {
			for i := 0; i < words; i++ {
				w := int(p)*words + i
				vals[w] = r.Uint32()
				h.store(p, addr(w), vals[w])
			}
		}
		h.barrier(seq(procs)...)
		for p := int32(0); p < procs; p++ {
			q := (p + 1) % procs
			for i := 0; i < words; i++ {
				w := int(q)*words + i
				h.load(p, addr(w), vals[w])
			}
		}
		for p := int32(0); p < procs; p++ {
			h.acq(p, k)
			h.rel(p, k)
		}
	}
	if stale {
		h.store(0, addr(0), vals[0]+1)
		h.barrier(seq(procs)...)
		h.load(1, addr(0), vals[0])
	}
}

func seq(n int32) []int32 {
	ps := make([]int32, n)
	for i := range ps {
		ps[i] = int32(i)
	}
	return ps
}

// spareZero reports whether s's capacity beyond its length is all zero,
// the condition extend relies on.
func spareZero[T comparable](s []T) bool {
	var zero T
	for _, x := range s[len(s):cap(s)] {
		if x != zero {
			return false
		}
	}
	return true
}

// TestReusedRecorderMatchesFresh runs a larger checked history, releases
// its recorder, and runs smaller ones on recorders built after it: each
// must report what a recorder with fresh tables reports, and keep its
// tables' spare capacity zero.  The pool may drop a release (the race
// detector drops some on purpose), so the test repeats until a recorder
// has actually reused released tables.
func TestReusedRecorderMatchesFresh(t *testing.T) {
	for _, model := range []proto.Model{proto.ModelRC, proto.ModelSC} {
		reused := 0
		for i := int64(0); i < 50 && reused < 3; i++ {
			big := newHistory(model, 4)
			phases(big, 4, 300, 4, i, false)
			if v := big.r.Check(); v != nil {
				t.Fatalf("%s: larger history: %v", model, v)
			}
			big.r.Release()
			for _, stale := range []bool{false, true} {
				h := newHistory(model, 3)
				if cap(h.r.words) > 0 {
					reused++
				}
				if !spareZero(h.r.words[:0]) || !spareZero(h.r.locs[:0]) || !spareZero(h.r.writes[:0]) {
					t.Fatalf("%s: a reused recorder's tables are not zero", model)
				}
				fresh := newHistory(model, 3)
				fresh.r.words, fresh.r.locs, fresh.r.writes = nil, nil, nil
				phases(h, 3, 40, 3, 100+i, stale)
				phases(fresh, 3, 40, 3, 100+i, stale)
				if !spareZero(h.r.words) || !spareZero(h.r.locs) || !spareZero(h.r.writes) {
					t.Fatalf("%s: a reused recorder's spare capacity is not zero", model)
				}
				got, want := h.r.Check(), fresh.r.Check()
				if (got != nil) != stale || (want != nil) != stale {
					t.Fatalf("%s stale=%v: got violation %v, fresh %v", model, stale, got, want)
				}
				if got != nil && got.Error() != want.Error() {
					t.Fatalf("%s: violation %q, fresh %q", model, got, want)
				}
				if h.r.CheckSummary() != fresh.r.CheckSummary() {
					t.Fatalf("%s: summary %+v, fresh %+v", model, h.r.CheckSummary(), fresh.r.CheckSummary())
				}
				h.r.Release()
			}
		}
		if reused == 0 {
			t.Fatalf("%s: no recorder reused released tables", model)
		}
	}
}

// BenchmarkNilRecorderAccess pins the engine-hot-path criterion: the
// disabled recorder must cost one branch, no allocations.
func BenchmarkNilRecorderAccess(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Access(0, int64(i), 4, i&1 == 0, uint64(i), int64(i))
	}
}

// BenchmarkRecorderAccess measures the enabled recorder's record-and-check
// cost per operation on a release-consistency mix: four processors load
// and store a shared 4 KB region, one operation in four a store, with a
// barrier every 256 operations.
func BenchmarkRecorderAccess(b *testing.B) {
	const procs, words = 4, 1024
	r := NewRecorder(proto.ModelRC, procs)
	var vals [words]uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		if i&255 == 255 {
			for p := int32(0); p < procs; p++ {
				r.BarrierArrive(p, 0, now)
			}
			for p := int32(0); p < procs; p++ {
				r.BarrierDepart(p, 0, now)
			}
			continue
		}
		p, w := int32(i&(procs-1)), (i*7)&(words-1)
		if i&12 == 0 {
			vals[w] = uint32(i)
			r.Access(p, int64(w)*4, 4, true, uint64(vals[w]), now)
		} else {
			r.Access(p, int64(w)*4, 4, false, uint64(vals[w]), now)
		}
	}
	if v := r.Check(); v != nil {
		b.Fatal(v)
	}
}
