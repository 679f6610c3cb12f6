package harness

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swsm/internal/apps"
	"swsm/internal/comm"
	"swsm/internal/proto"
)

// Session is a sweep session: it schedules independent RunSpecs over a
// bounded number of concurrent workers and memoizes every run by its
// spec, so any configuration — including the sequential baseline every
// speedup divides by — executes at most once per session no matter how
// many figures and tables request it.  Concurrent requests for a spec
// already in flight wait for that one execution (single flight).
//
// Cross-run parallelism cannot perturb results: each sim.Engine is
// single-threaded and deterministic, every run gets a fresh machine,
// and a run's outcome depends only on its RunSpec.  RunSpec is a flat
// comparable struct, so it serves directly as the memo key (every field
// participates).  Memoized *Results are shared between callers and must
// be treated as read-only.  All methods are safe for concurrent use.
type Session struct {
	run func(context.Context, RunSpec) (*Result, error)
	sem chan struct{}

	mu    sync.Mutex
	calls map[RunSpec]*call

	obs Observer

	runs, hits, waits atomic.Int64
	inFlight          atomic.Int64
}

// call is one memoized execution.  done is closed exactly once, after
// res/err are final.
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// Stats counts a session's memo traffic.  The JSON tags are the
// /metrics wire names of the svmd experiment service.
type Stats struct {
	// Runs is the number of simulations actually executed (memo misses).
	Runs int64 `json:"runs"`
	// Hits is the number of requests served from completed runs.
	Hits int64 `json:"hits"`
	// Waits is the number of requests that found an identical spec
	// already in flight and waited for it (single-flight deduplication).
	Waits int64 `json:"waits"`
}

// Observer receives wall-clock scheduling telemetry from a session: how
// long each executed run waited for a worker slot and how long it ran.
// Callbacks fire only for actual executions (memo hits and
// single-flight waits are invisible — they cost no slot) and may be
// invoked concurrently.  A nil observer is the disabled path: the
// session then takes no clock readings at all.
type Observer interface {
	// RunStart fires when a run acquires a worker slot, with the time it
	// spent queued behind the slot semaphore.
	RunStart(queueWait time.Duration)
	// RunEnd fires when the simulation returns.
	RunEnd(run time.Duration, err error)
}

// NewSession creates a session running at most parallel simulations
// concurrently (parallel <= 0 means runtime.GOMAXPROCS(0)).
func NewSession(parallel int) *Session { return newSession(parallel, RunContext) }

// newSession is NewSession over an arbitrary run function (tests stub
// the simulator with it).  The executing run receives the context of
// the first caller that requested its spec: observability annotations
// such as the job ID ride along.
func newSession(parallel int, run func(context.Context, RunSpec) (*Result, error)) *Session {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Session{
		run:   run,
		sem:   make(chan struct{}, parallel),
		calls: make(map[RunSpec]*call),
	}
}

// SetObserver installs the session's scheduling telemetry.  Call before
// the session starts running; the observer is read without
// synchronization afterwards.
func (s *Session) SetObserver(o Observer) { s.obs = o }

// Parallelism reports the session's worker bound.
func (s *Session) Parallelism() int { return cap(s.sem) }

// InFlight reports how many simulations currently occupy a worker slot.
// Memo hits and single-flight waits never count — they hold no slot.
// The cluster worker agent leases remote jobs against exactly the slots
// this leaves free (Parallelism - InFlight), so remote work fills idle
// capacity without overcommitting a node already busy with local
// requests.
func (s *Session) InFlight() int { return int(s.inFlight.Load()) }

// Stats returns a snapshot of the session's memo counters.
func (s *Session) Stats() Stats {
	return Stats{Runs: s.runs.Load(), Hits: s.hits.Load(), Waits: s.waits.Load()}
}

// Cached reports whether spec already has a completed memoized result —
// value or error — so a Run for it would return without executing.  An
// in-flight spec reports false: a caller asking "would this cost a
// fresh run?" should treat it as one, because the answer is not
// available yet.  The explore optimizer's budget accounting uses this
// probe to charge only fresh simulations.
func (s *Session) Cached(spec RunSpec) bool {
	s.mu.Lock()
	c, ok := s.calls[spec]
	s.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Run executes spec through the session memo.
func (s *Session) Run(spec RunSpec) (*Result, error) {
	return s.RunCtx(context.Background(), spec)
}

// RunCtx executes spec at most once per session: the first caller runs
// it (bounded by the worker semaphore), concurrent callers with the same
// spec wait for that execution, and later callers get the memoized
// result.  Errors are memoized like results.
//
// A context cancelled while the run is queued behind the worker bound
// withdraws it before execution — the cancellation is NOT memoized, so
// a later caller re-executes the spec; this is how the experiment
// service sheds work for disconnected requests and on shutdown.  A
// context cancelled while waiting on another caller's in-flight run
// abandons only the wait.  A simulation that has already started always
// runs to completion and is memoized: each run is short relative to a
// sweep, and an aborted engine would leave no reusable result.
func (s *Session) RunCtx(ctx context.Context, spec RunSpec) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if c, ok := s.calls[spec]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			s.hits.Add(1)
			return c.res, c.err
		default:
		}
		s.waits.Add(1)
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	s.calls[spec] = c
	s.mu.Unlock()

	var queuedAt time.Time
	if s.obs != nil {
		queuedAt = time.Now()
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		// Withdraw the queued run so the spec can be retried; waiters
		// already parked on c.done observe the cancellation error (the
		// execution they were waiting for never happened).
		s.mu.Lock()
		delete(s.calls, spec)
		s.mu.Unlock()
		c.err = ctx.Err()
		close(c.done)
		return nil, c.err
	}
	s.runs.Add(1)
	s.inFlight.Add(1)
	var startedAt time.Time
	if s.obs != nil {
		startedAt = time.Now()
		s.obs.RunStart(startedAt.Sub(queuedAt))
	}
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
		// Close only after res/err are final so waiters never observe a
		// half-written call.
		close(c.done)
	}()
	func() {
		// A panicking run (apps reject impossible geometry that way) is
		// memoized as an error like any other failure: long-lived callers
		// such as the experiment service must not die — or hand waiters a
		// nil result — because one spec was unrunnable.
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("harness: panic running %v: %v", spec, r)
			}
		}()
		c.res, c.err = s.run(ctx, spec)
	}()
	if s.obs != nil {
		s.obs.RunEnd(time.Since(startedAt), c.err)
	}
	return c.res, c.err
}

// RunEach runs every spec concurrently through the session memo and
// returns results and errors in spec order (index i corresponds to
// specs[i], regardless of completion order — the property that keeps
// sweep output deterministic).  Every spec's error is kept, so one
// failed cell, such as a litmus violation, hides none of the rest.
// Cancellation follows RunCtx: queued specs abort, started simulations
// finish and memoize.
func (s *Session) RunEach(ctx context.Context, specs []RunSpec) ([]*Result, []error) {
	out := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			out[i], errs[i] = s.RunCtx(ctx, spec)
		}(i, spec)
	}
	wg.Wait()
	return out, errs
}

// BaselineSpec is the canonical sequential-baseline spec: the app
// single-threaded on the ideal machine ("the same best sequential
// version" of the paper), the denominator of every speedup.  An output
// that shows speedups lists the baselines it divides by among its
// specs; building them here guarantees every caller, local or remote,
// hits the same memo key and persistent-store entry.
func BaselineSpec(app string, scale apps.Scale, cacheEnabled bool) RunSpec {
	return RunSpec{
		App: app, Scale: scale, Protocol: Ideal, Procs: 1,
		Comm: comm.Best(), Costs: proto.BestCosts(), CacheEnabled: cacheEnabled,
	}
}

// idealSpec is the parallel ideal-machine spec used for algorithmic
// speedups (Figure 3's "Ideal" bars, Table 5's denominator).
func idealSpec(app string, scale apps.Scale, procs int) RunSpec {
	return RunSpec{
		App: app, Scale: scale, Protocol: Ideal, Procs: procs,
		Comm: comm.Best(), Costs: proto.BestCosts(), CacheEnabled: true,
	}
}

// Speedup runs spec and its sequential baseline (concurrently if not
// already cached) and reports cycles(seq)/cycles(parallel).
func (s *Session) Speedup(spec RunSpec) (float64, *Result, error) {
	results, errs := s.RunEach(context.Background(), []RunSpec{
		BaselineSpec(spec.App, spec.Scale, spec.CacheEnabled), spec,
	})
	if err := cmp.Or(errs...); err != nil {
		return 0, nil, err
	}
	return float64(results[0].Cycles) / float64(results[1].Cycles), results[1], nil
}

// Point is one spec's outcome, the record every Source returns: the
// spec's row, or the text of the error that failed its run.  The
// session and the svmd client return the same points for the same
// specs, so every projection reads one record wherever the runs
// happened.
type Point struct {
	Row     RunRow
	Failure string
}

// Points runs exactly the given specs, each once through the session
// memo, and returns their points in spec order.  Every spec is
// validated before any runs; a run's error becomes its point's failure.
func (s *Session) Points(ctx context.Context, specs []RunSpec) ([]Point, error) {
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	results, errs := s.RunEach(ctx, specs)
	points := make([]Point, len(specs))
	for i, err := range errs {
		if err != nil {
			points[i].Failure = err.Error()
		} else {
			points[i].Row = NewRunRow(results[i])
		}
	}
	return points, nil
}

// Rows returns each point's row, or the first failure in spec order as
// the error.  A row whose BaselineSpec is among the points carries its
// speedup over that baseline: an output that shows speedups lists the
// baselines it divides by.
func Rows(points []Point) ([]RunRow, error) {
	cycles := make(map[RunSpec]int64, len(points))
	for _, p := range points {
		if p.Failure != "" {
			return nil, errors.New(p.Failure)
		}
		cycles[p.Row.Spec] = p.Row.Cycles
	}
	rows := make([]RunRow, len(points))
	for i, p := range points {
		rows[i] = p.Row
		spec := p.Row.Spec
		if seq, ok := cycles[BaselineSpec(spec.App, spec.Scale, spec.CacheEnabled)]; ok {
			rows[i] = rows[i].WithSpeedup(seq)
		}
	}
	return rows, nil
}

// A Source resolves specs to their points in spec order, running
// exactly the specs it is given: Session.Points in process, or an svmd
// client's points.  Every experiment resolves through one, so it prints
// the same report wherever its runs happen.
type Source func(ctx context.Context, specs []RunSpec) ([]Point, error)

// resolve resolves specs to their rows through src (see Rows).
func resolve(ctx context.Context, src Source, specs []RunSpec) ([]RunRow, error) {
	points, err := src(ctx, specs)
	if err != nil {
		return nil, err
	}
	return Rows(points)
}
