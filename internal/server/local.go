package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"slices"
	"sync"
	"time"

	"swsm/internal/harness"
	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// localExec is the daemon's executor: a bounded FIFO of live queued
// jobs, kept under the front end's lock and drained by one worker
// goroutine per simulation slot, each resolving a job store-first, then
// through the memoized session, then writing back.
type localExec struct {
	s     *Server
	depth int
	// queue, ready and closed are guarded by s.mu.  A canceled job
	// leaves queue at once, so its slot is free for the next submission.
	queue  []*Job
	ready  *sync.Cond
	closed bool
	wg     sync.WaitGroup
}

func newLocalExec(s *Server, depth int) *localExec {
	e := &localExec{s: s, depth: depth, ready: sync.NewCond(&s.mu)}
	for i := 0; i < s.ses.Parallelism(); i++ {
		e.wg.Add(1)
		go e.work()
	}
	return e
}

// work runs queued jobs, oldest first, until the executor is closed and
// the queue has drained.
func (e *localExec) work() {
	defer e.wg.Done()
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	for {
		for len(e.queue) == 0 && !e.closed {
			e.ready.Wait()
		}
		if len(e.queue) == 0 {
			return
		}
		j := e.queue[0]
		e.queue = slices.Delete(e.queue, 0, 1)
		e.s.execLocked(j)
	}
}

func (e *localExec) Admit() error { return nil }

// Enqueue never blocks: a full queue is explicit backpressure.  The
// front end holds its lock across the call and the job's entry into the
// table, so a worker sees j only once it is fully entered.
func (e *localExec) Enqueue(j *Job) (string, *harness.RunRow, error) {
	if len(e.queue) >= e.depth {
		return "", nil, ErrQueueFull
	}
	e.queue = append(e.queue, j)
	e.ready.Signal()
	return "", nil, nil
}

// Cancel finishes a queued job at once and frees its queue slot (a
// worker dequeues a job and starts it under one hold of the lock, so a
// queued job is always in the queue); a running one ends through its
// context.
func (e *localExec) Cancel(j *Job) bool {
	i := slices.Index(e.queue, j)
	if i >= 0 {
		e.queue = slices.Delete(e.queue, i, i+1)
	}
	return i >= 0
}

func (e *localExec) Sweep(string, []*Job) {}

func (e *localExec) Load() Load {
	return Load{Capacity: e.depth, Workers: e.s.ses.Parallelism()}
}

// Close lets the workers drain the queue; if ctx expires first, the
// remaining job contexts are cancelled.
func (e *localExec) Close(ctx context.Context) error {
	e.s.mu.Lock()
	e.closed = true
	e.ready.Broadcast()
	e.s.mu.Unlock()
	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// execLocked runs one dequeued job on a worker: store lookup, then
// simulation through the memoized session, then store write-back.  The
// caller holds s.mu, which is released while the job runs.
func (s *Server) execLocked(j *Job) {
	if err := j.ctx.Err(); err != nil {
		s.FinishLocked(j, "", nil, false, err)
		return
	}
	s.MoveLocked(j, api.StateRunning, "")
	s.mu.Unlock()
	defer s.mu.Lock()

	row, cached, err := s.resolve(j.ctx, j.req.Spec, j.spans, "")
	if err == nil && j.req.Speedup {
		spec := j.req.Spec
		var base *harness.RunRow
		base, _, err = s.resolve(j.ctx,
			harness.BaselineSpec(spec.App, spec.Scale, spec.CacheEnabled), j.spans, "baseline.")
		if err == nil {
			r := row.WithSpeedup(base.Cycles)
			row = &r
		}
	}

	s.mu.Lock()
	s.FinishLocked(j, "", row, cached, err)
	s.mu.Unlock()
	s.observeTerminal(j)
}

// observeTerminal runs the post-terminal observability work that must
// not hold s.mu: latency accounting against the SLO, the per-job
// outcome log line, and (on failure or SLO breach) an async
// flight-recorder dump.  j is terminal, so its fields are stable.
func (s *Server) observeTerminal(j *Job) {
	s.met.runDur.Observe(j.wall.Seconds())
	breach := s.cfg.SLO > 0 && j.wall > s.cfg.SLO
	if breach {
		s.met.sloBreaches.Inc()
	}
	if s.log != nil {
		lvl, msg := slog.LevelInfo, "job "+j.state
		if j.state == api.StateFailed {
			lvl = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("state", j.state),
			slog.Duration("wall", j.wall),
			slog.Bool("cached", j.cached),
		}
		if j.err != nil {
			attrs = append(attrs, slog.String("error", j.err.Error()))
		}
		if breach {
			attrs = append(attrs, slog.Duration("slo", s.cfg.SLO))
		}
		s.log.LogAttrs(j.ctx, lvl, msg, attrs...)
	}
	if j.state == api.StateFailed || breach {
		reason := "job failed"
		if j.state != api.StateFailed {
			reason = "slo breach"
		}
		go func() {
			if path, _ := s.flight.Dump(reason, j.id); path != "" {
				s.met.flightDumps.Inc()
				if s.log != nil {
					s.log.LogAttrs(j.ctx, slog.LevelInfo, "flight recorder dumped",
						slog.String("path", path), slog.String("reason", reason))
				}
			}
		}()
	}
}

// resolve produces the row for one spec: persistent store first, then
// the memoized session, writing fresh results back to the store.  Each
// stage is timed into the job's span recorder (names prefixed for the
// speedup baseline's second resolve) and the store histograms.
func (s *Server) resolve(ctx context.Context, spec harness.RunSpec, sp *obs.Spans, prefix string) (*harness.RunRow, bool, error) {
	key := spec.Key()
	if s.st != nil {
		t0 := time.Now()
		payload, ok := s.st.Get(key)
		s.met.storeGet.ObserveSince(t0)
		sp.Add(prefix+obs.SpanStoreGet, t0, time.Now())
		if ok {
			if row, ok := harness.DecodeRow(payload, spec); ok {
				return row, true, nil
			}
		}
	}
	t0 := time.Now()
	res, err := s.runFn(ctx, spec)
	sp.Add(prefix+obs.SpanSim, t0, time.Now())
	if err != nil {
		return nil, false, err
	}
	row := harness.NewRunRow(res)
	if s.st != nil {
		if payload, err := json.Marshal(row); err == nil {
			// Store damage must not fail the run; the next daemon just
			// recomputes.
			t0 := time.Now()
			_ = s.st.Put(key, payload)
			s.met.storePut.ObserveSince(t0)
			sp.Add(prefix+obs.SpanStorePut, t0, time.Now())
		}
	}
	return &row, false, nil
}
