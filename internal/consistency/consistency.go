// Package consistency is the machine-checkable side of the protocol
// contracts: a recorder that takes in the per-location access history of
// a run (loads with the values they observed, stores, lock
// acquire/release, barrier episodes) and checks it online, keeping the
// happens-before order those sync operations induce and verifying every
// load, the moment it is recorded, against the set of writes the
// protocol's declared consistency model permits it to return.
//
// The recorder follows the trace.Tracer idiom: every hook is a method on
// a *Recorder with a nil-receiver fast path, so an unchecked run (the
// default) pays exactly one predictable branch and zero allocations per
// shared reference.  Hooks arrive in engine execution order, which is the
// order simulated memory state actually evolves in, so each one is folded
// into the checker state as it arrives and no history is kept for a
// replay.
//
// Accesses are checked at word (32-bit) granularity: an 8-byte access is
// split into two word accesses.  This matches the protocols' atomicity
// unit — HLRC/LRC diff at word grain, scfg copies word arrays — so a
// "torn" double assembled from two permitted word values is, correctly,
// not a violation.  Addresses are word-aligned, as every application and
// litmus program lays them out.
package consistency

import (
	"fmt"
	"strings"
	"sync"

	"swsm/internal/proto"
)

// Recorder checks a run's access history as it is recorded.  All hook
// methods are safe on a nil receiver (no-ops), so the core machine calls
// them unconditionally.  The recorder itself is not goroutine-safe; the
// simulator is single-threaded, which is what makes the recorded order
// meaningful.
type Recorder struct {
	model  proto.Model
	procs  int
	events int
	// done stops the checker, at its first violation or at Check; hooks
	// after that are only counted.
	done bool
	viol *Violation
	sum  Summary

	// words is the dense word table, indexed by addr>>2 and grown on
	// demand; locs holds the write state of every word stored to, and
	// writes the write records of all of them.  None of the three holds a
	// pointer, so the garbage collector never scans them.
	words  []word
	locs   []loc
	writes []writeRec

	// Release-consistency state (check.go).  Processor p's vector clock
	// is clocks[p*procs : (p+1)*procs].
	clocks []int32
	// snaps holds shared copies of processor clocks, procs entries each;
	// cur[p] is the copy p's stores use, or -1 once a join has changed
	// p's clock since it was taken.
	snaps []int32
	cur   []int32
	locks map[int64][]int32
	bars  map[int64]*barState
	// syncs keeps every sync operation for happens-before path reports.
	syncs []syncRec
	// floor and cover are compaction scratch.
	floor, cover []int32
}

// tables holds a released recorder's word, location and write tables,
// cleared, so that the next recorder grows into them instead of
// allocating and copying its way up again.
type tables struct {
	words  []word
	locs   []loc
	writes []writeRec
}

// tablePool recycles released tables; sync.Pool because concurrent runs
// share it.
var tablePool sync.Pool

// NewRecorder builds a recorder for a machine of `procs` processors
// whose protocol declares `model`.
func NewRecorder(model proto.Model, procs int) *Recorder {
	r := &Recorder{model: model, procs: procs, sum: Summary{Model: model}}
	if t, _ := tablePool.Get().(*tables); t != nil {
		r.words, r.locs, r.writes = t.words, t.locs, t.writes
	}
	if model != proto.ModelSC {
		r.clocks = make([]int32, procs*procs)
		r.cur = make([]int32, procs)
		for p := range r.cur {
			r.cur[p] = -1
		}
		r.locks = make(map[int64][]int32)
		r.bars = make(map[int64]*barState)
		r.floor = make([]int32, procs)
		r.cover = make([]int32, procs)
	}
	return r
}

// Model reports the consistency model this recorder checks against.
func (r *Recorder) Model() proto.Model { return r.model }

// Init records a pre-run initialization write (Machine.InitWord /
// InitF64).  Init values are the base every location's permitted-value
// set starts from, so Init must precede the run's first access.
func (r *Recorder) Init(addr int64, size int, val uint64) {
	if r == nil {
		return
	}
	r.reserve(addr, size)
	r.words[addr>>2].last = uint32(val)
	if size == 8 {
		r.words[(addr+4)>>2].last = uint32(val >> 32)
	}
}

// Access records and checks one shared data reference and the raw value
// it stored or observed.  Called from the thread's post path,
// immediately after the data operation.
func (r *Recorder) Access(proc int32, addr int64, size int, write bool, val uint64, now int64) {
	if r == nil {
		return
	}
	r.access(proc, addr, size, write, val, now)
}

// access is Access's body, kept out of it so that Access inlines and the
// nil check costs no call.
func (r *Recorder) access(proc int32, addr int64, size int, write bool, val uint64, now int64) {
	r.events++
	if r.done {
		return
	}
	r.reserve(addr, size)
	rc := r.model != proto.ModelSC
	var op int32
	if rc {
		op = r.tick(proc)
	}
	if write {
		w := writeRec{time: now, val: uint32(val), proc: proc, opIdx: op}
		if rc {
			w.snap = r.snapshot(proc)
		}
		r.store(addr, w)
		if size == 8 {
			w.val = uint32(val >> 32)
			r.store(addr+4, w)
		}
		return
	}
	v := r.load(addr, uint32(val), proc, now)
	if v == nil && size == 8 {
		v = r.load(addr+4, uint32(val>>32), proc, now)
	}
	r.fail(v)
}

// LockAcquire records that proc completed an acquire of lock l
// (recorded after the protocol-level acquire returns, so every release
// whose interval the grant carried is already in the history).
func (r *Recorder) LockAcquire(proc int32, lock int, now int64) {
	if r == nil {
		return
	}
	r.sync(opAcquire, proc, int64(lock), now)
}

// LockRelease records that proc is about to release lock l (recorded
// before the protocol-level release, so it precedes any acquire it
// enables).
func (r *Recorder) LockRelease(proc int32, lock int, now int64) {
	if r == nil {
		return
	}
	r.sync(opRelease, proc, int64(lock), now)
}

// BarrierArrive records that proc reached barrier b (before the
// protocol-level barrier).
func (r *Recorder) BarrierArrive(proc int32, bar int, now int64) {
	if r == nil {
		return
	}
	r.sync(opBarArrive, proc, int64(bar), now)
}

// BarrierDepart records that proc left barrier b (after the
// protocol-level barrier released it).
func (r *Recorder) BarrierDepart(proc int32, bar int, now int64) {
	if r == nil {
		return
	}
	r.sync(opBarDepart, proc, int64(bar), now)
}

// Events reports how many operations were recorded.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	return r.events
}

// Check returns the first violation in execution order, or nil if the
// run conforms, and stops the checker: operations recorded after it are
// counted but not checked.  Check is idempotent.
func (r *Recorder) Check() *Violation {
	if r == nil {
		return nil
	}
	if !r.done {
		r.done = true
		r.sum.Locations = int64(len(r.locs))
	}
	return r.viol
}

// Release clears the recorder's tables and hands them back for a later
// recorder to reuse.  Only the used prefix of each needs clearing: extend
// keeps spare capacity zero.  The recorder must not be used afterwards.
func (r *Recorder) Release() {
	if r == nil {
		return
	}
	clear(r.words)
	clear(r.locs)
	clear(r.writes)
	tablePool.Put(&tables{words: r.words[:0], locs: r.locs[:0], writes: r.writes[:0]})
	r.words, r.locs, r.writes = nil, nil, nil
}

// CheckSummary reports what Check covered (valid after Check).
func (r *Recorder) CheckSummary() Summary {
	if r == nil {
		return Summary{}
	}
	return r.sum
}

// fail stops the checker at its first violation; nil is no violation.
func (r *Recorder) fail(v *Violation) {
	if v != nil {
		r.viol, r.done = v, true
	}
}

// word is one entry of the dense word table.
type word struct {
	// last is a value every load of the word may return: the latest
	// store's, or the initialization value before the first store.
	last uint32
	// loc is 1 + the index of the word's write state in locs, or 0 before
	// the word's first store.
	loc int32
}

// reserve grows the word table to cover a size-byte access at addr.
func (r *Recorder) reserve(addr int64, size int) {
	if n := (addr + int64(size) + 3) >> 2; n > int64(len(r.words)) {
		r.words = extend(r.words, int(n)-len(r.words))
	}
}

// extend lengthens s by n zero elements, at least doubling its capacity
// when it must grow, so that building a large slice copies it about once
// in all.  s must never have been shortened, so its spare capacity is
// still zero.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		grown := make([]T, len(s), 2*cap(s)+n)
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+n]
}

// Summary aggregates what a finished Check covered.
type Summary struct {
	Model proto.Model
	// Loads and Stores count checked word-granularity accesses.
	Loads, Stores int64
	// Locations is the number of distinct word addresses written.
	Locations int64
	// SyncOps counts recorded acquire/release/barrier operations.
	SyncOps int64
}

func (s Summary) String() string {
	return fmt.Sprintf("%s: %d loads, %d stores over %d locations, %d sync ops",
		s.Model, s.Loads, s.Stores, s.Locations, s.SyncOps)
}

// Violation describes the first load the checker could not justify.  It
// implements error so harness runs surface it through the normal error
// path, and callers detect it with errors.As to distinguish a
// consistency violation from an application verification failure.
type Violation struct {
	Model proto.Model
	// Proc/Addr/Cycle locate the offending load; Addr is the word
	// address actually checked (for split 8-byte accesses, the stale
	// half).
	Proc  int32
	Addr  int64
	Cycle int64
	// Got is the value the load returned; Want describes the permitted
	// set.
	Got  uint32
	Want string
	// Path is the happens-before chain (store → sync hops → load) that
	// forbids Got, outermost first.  Empty for thin-air values, which no
	// chain explains.
	Path []string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consistency violation (%s): proc %d load of addr 0x%x at cycle %d returned 0x%x; %s",
		v.Model, v.Proc, v.Addr, v.Cycle, v.Got, v.Want)
	if len(v.Path) > 0 {
		b.WriteString("\n  happens-before path:\n")
		for _, hop := range v.Path {
			b.WriteString("    ")
			b.WriteString(hop)
			b.WriteString("\n")
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
