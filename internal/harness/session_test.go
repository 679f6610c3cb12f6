package harness

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The memo tests stub the simulator: the spec's Procs field stands in
// for a key k, and a stub result carries its answer in Cycles.

func stubSpec(k int) RunSpec { return RunSpec{Procs: k} }

func stubSpecs(ks ...int) []RunSpec {
	out := make([]RunSpec, len(ks))
	for i, k := range ks {
		out[i] = stubSpec(k)
	}
	return out
}

// stub adapts f into a run function over stub keys.
func stub(f func(k int) (int64, error)) func(context.Context, RunSpec) (*Result, error) {
	return func(_ context.Context, spec RunSpec) (*Result, error) {
		v, err := f(spec.Procs)
		if err != nil {
			return nil, err
		}
		return &Result{Spec: spec, Cycles: v}, nil
	}
}

// cycles is the stub answer of a result, -1 for none.
func cycles(res *Result) int64 {
	if res == nil {
		return -1
	}
	return res.Cycles
}

func TestMemoHitMiss(t *testing.T) {
	var execs atomic.Int64
	s := newSession(2, stub(func(k int) (int64, error) {
		execs.Add(1)
		return int64(k) * 10, nil
	}))
	for i := 0; i < 3; i++ {
		res, err := s.Run(stubSpec(7))
		if err != nil || cycles(res) != 70 {
			t.Fatalf("Run(7) = %d, %v", cycles(res), err)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("run executed %d times, want 1", got)
	}
	st := s.Stats()
	if st.Runs != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want Runs=1 Hits=2", st)
	}
}

func TestSingleFlight(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s := newSession(4, stub(func(k int) (int64, error) {
		execs.Add(1)
		<-release
		return int64(k) + 1, nil
	}))
	const waiters = 4
	var wg sync.WaitGroup
	results := make([]int64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _ := s.Run(stubSpec(3))
			results[i] = cycles(res)
		}(i)
	}
	// Let the goroutines reach Run before releasing the single execution.
	for s.Stats().Runs+s.Stats().Waits < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("run executed %d times for one spec, want 1", got)
	}
	for i, r := range results {
		if r != 4 {
			t.Fatalf("waiter %d got %d", i, r)
		}
	}
	st := s.Stats()
	if st.Runs != 1 || st.Waits != waiters-1 {
		t.Fatalf("stats = %+v, want Runs=1 Waits=%d", st, waiters-1)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const bound = 2
	var cur, peak atomic.Int64
	s := newSession(bound, stub(func(k int) (int64, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		// Hold the slot long enough for contention to be observable.
		for i := 0; i < 1000; i++ {
			_ = i
		}
		cur.Add(-1)
		return int64(k), nil
	}))
	specs := make([]RunSpec, 16)
	for i := range specs {
		specs[i] = stubSpec(i)
	}
	if _, errs := s.RunEach(context.Background(), specs); cmp.Or(errs...) != nil {
		t.Fatal(cmp.Or(errs...))
	}
	if got := peak.Load(); got > bound {
		t.Fatalf("observed %d concurrent executions, bound is %d", got, bound)
	}
}

func TestDoAllOrder(t *testing.T) {
	s := newSession(4, stub(func(k int) (int64, error) { return int64(k * k), nil }))
	ks := []int{5, 3, 9, 1, 3, 5}
	out, errs := s.RunEach(context.Background(), stubSpecs(ks...))
	if err := cmp.Or(errs...); err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		if cycles(out[i]) != int64(k*k) {
			t.Fatalf("out[%d] = %d, want %d (results must align with spec order)", i, cycles(out[i]), k*k)
		}
	}
	st := s.Stats()
	if st.Runs != 4 { // 5, 3, 9, 1 — duplicates deduplicated
		t.Fatalf("runs = %d, want 4", st.Runs)
	}
}

func TestErrorMemoized(t *testing.T) {
	boom := errors.New("boom")
	var execs atomic.Int64
	s := newSession(1, stub(func(k int) (int64, error) {
		execs.Add(1)
		return 0, boom
	}))
	if _, err := s.Run(stubSpec(1)); !errors.Is(err, boom) {
		t.Fatalf("first Run err = %v", err)
	}
	if _, err := s.Run(stubSpec(1)); !errors.Is(err, boom) {
		t.Fatalf("second Run err = %v", err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("failing run executed %d times, want 1 (errors memoize)", got)
	}
}

func TestDefaultParallelism(t *testing.T) {
	s := NewSession(0)
	if s.Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d, want >= 1", s.Parallelism())
	}
}

func TestDoCtxPreCancelled(t *testing.T) {
	var execs atomic.Int64
	s := newSession(1, stub(func(k int) (int64, error) { execs.Add(1); return int64(k), nil }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunCtx(ctx, stubSpec(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on cancelled ctx err = %v, want Canceled", err)
	}
	if execs.Load() != 0 {
		t.Fatal("run executed despite pre-cancelled context")
	}
}

// TestDoCtxCancelQueued pins the withdraw semantics: a run cancelled
// while waiting for a worker slot never executes, its error is not
// memoized, and a later un-cancelled caller re-executes the spec.
func TestDoCtxCancelQueued(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s := newSession(1, stub(func(k int) (int64, error) {
		execs.Add(1)
		if k == 0 {
			<-release
		}
		return int64(k) * 10, nil
	}))
	// Occupy the single worker slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Run(stubSpec(0)) }()
	for s.Stats().Runs < 1 {
		runtime.Gosched()
	}

	// Queue spec 7 behind the occupied slot, then cancel it.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.RunCtx(ctx, stubSpec(7))
		errc <- err
	}()
	// Wait until the run is registered (in the calls map but not running).
	for {
		s.mu.Lock()
		_, registered := s.calls[stubSpec(7)]
		s.mu.Unlock()
		if registered {
			break
		}
		runtime.Gosched()
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued RunCtx err = %v, want Canceled", err)
	}
	close(release)
	wg.Wait()

	// Cancellation must not be memoized: a fresh caller re-executes.
	res, err := s.Run(stubSpec(7))
	if err != nil || cycles(res) != 70 {
		t.Fatalf("Run(7) after cancelled attempt = %d, %v; want 70, nil", cycles(res), err)
	}
	if got := execs.Load(); got != 2 { // spec 0 + spec 7 retry; the cancelled attempt never ran
		t.Fatalf("run executed %d times, want 2", got)
	}
}

// TestDoCtxCancelWait pins that abandoning a wait on another caller's
// in-flight execution does not disturb the execution: it completes and
// memoizes normally.
func TestDoCtxCancelWait(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s := newSession(2, stub(func(k int) (int64, error) {
		execs.Add(1)
		<-release
		return int64(k) + 1, nil
	}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Run(stubSpec(5)) }()
	for s.Stats().Runs < 1 {
		runtime.Gosched()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.RunCtx(ctx, stubSpec(5))
		errc <- err
	}()
	for s.Stats().Waits < 1 {
		runtime.Gosched()
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting RunCtx err = %v, want Canceled", err)
	}

	close(release)
	wg.Wait()
	res, err := s.Run(stubSpec(5))
	if err != nil || cycles(res) != 6 {
		t.Fatalf("Run(5) = %d, %v; want 6, nil", cycles(res), err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("run executed %d times, want 1 (abandoned wait must not re-execute)", got)
	}
}

func TestDoAllCtxCancelled(t *testing.T) {
	release := make(chan struct{})
	// Every spec blocks until release, so with one worker exactly one
	// spec runs and the rest stay queued on the semaphore until
	// cancelled.
	s := newSession(1, stub(func(k int) (int64, error) {
		<-release
		return int64(k), nil
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, errs := s.RunEach(ctx, stubSpecs(0, 1, 2, 3))
		done <- cmp.Or(errs...)
	}()
	for s.Stats().Runs < 1 {
		runtime.Gosched()
	}
	cancel()
	// Wait for the queued specs to withdraw (only the running one
	// remains in the calls map) before releasing it, so no cancelled
	// spec can race onto the freed worker slot.
	for {
		s.mu.Lock()
		n := len(s.calls)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunEach err = %v, want Canceled (queued specs abort)", err)
	}
}

// TestPanicMemoizedAsError pins that a panicking run becomes a memoized
// error — waiters and later callers see the error, nobody sees a nil
// result, and the process survives (long-lived daemons depend on this).
func TestPanicMemoizedAsError(t *testing.T) {
	var execs atomic.Int64
	s := newSession(2, stub(func(k int) (int64, error) {
		execs.Add(1)
		panic("impossible geometry")
	}))
	for i := 0; i < 2; i++ {
		res, err := s.Run(stubSpec(7))
		if err == nil || !strings.Contains(err.Error(), "impossible geometry") {
			t.Fatalf("call %d: res=%v err=%v, want panic converted to error", i, res, err)
		}
	}
	if execs.Load() != 1 {
		t.Fatalf("run executed %d times, want 1 (panic memoized)", execs.Load())
	}
	if st := s.Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want Runs=1 Hits=1", st)
	}
}

func TestCached(t *testing.T) {
	release := make(chan struct{})
	s := newSession(2, stub(func(k int) (int64, error) {
		if k == 1 {
			<-release
		}
		return int64(k), nil
	}))
	if s.Cached(stubSpec(0)) {
		t.Fatal("unseen spec reported cached")
	}
	if _, err := s.Run(stubSpec(0)); err != nil {
		t.Fatal(err)
	}
	if !s.Cached(stubSpec(0)) {
		t.Fatal("completed spec not reported cached")
	}

	// An in-flight spec is not cached: Cached answers "would this cost
	// nothing", and a caller would still wait for the result.
	started := make(chan struct{})
	go func() {
		close(started)
		s.Run(stubSpec(1))
	}()
	<-started
	for s.InFlight() == 0 {
		runtime.Gosched()
	}
	if s.Cached(stubSpec(1)) {
		t.Error("in-flight spec reported cached")
	}
	close(release)
	if _, err := s.Run(stubSpec(1)); err != nil {
		t.Fatal(err)
	}
	if !s.Cached(stubSpec(1)) {
		t.Error("finished spec not reported cached")
	}
}
