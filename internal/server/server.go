// Package server implements svmd, the experiment service: a long-lived
// HTTP/JSON daemon that executes simulation runs the way an inference
// server executes requests — admitted through a bounded queue,
// deduplicated against identical in-flight work, answered from a
// persistent content-addressed result store when warm, and observable
// through SSE progress events and a metrics endpoint.
//
// The daemon layers three caches, cheapest first:
//
//  1. The persistent store (internal/store), keyed by the stable
//     versioned RunSpec content key — survives restarts.
//  2. The in-process memo of the harness.Session — deduplicates
//     everything the daemon computed this lifetime, including
//     sequential baselines shared across requests.
//  3. Single-flight job coalescing at the HTTP layer — N identical
//     concurrent POSTs attach to one job and therefore one simulation.
//
// Admission control is explicit: when the bounded queue is full the
// daemon answers 429 with Retry-After rather than buffering without
// bound, and during drain it answers 503 while in-flight work finishes.
//
// Server is the job front end — job table, coalescing, sweeps, wait and
// cancel, events, metrics, /explore and traces — over an Executor that
// decides where admitted jobs run.  New uses the local executor (the
// bounded queue and its workers, local.go); the cluster coordinator
// supplies its own through NewWith, so a client cannot tell a
// coordinator from a daemon.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"swsm/internal/harness"
	"swsm/internal/obs"
	"swsm/internal/server/api"
	"swsm/internal/store"

	// The daemon serves the full application suite.
	_ "swsm/internal/apps/barnes"
	_ "swsm/internal/apps/fft"
	_ "swsm/internal/apps/lu"
	_ "swsm/internal/apps/ocean"
	_ "swsm/internal/apps/radix"
	_ "swsm/internal/apps/raytrace"
	_ "swsm/internal/apps/volrend"
	_ "swsm/internal/apps/water"
)

// Version identifies the service wire protocol; it is reported by
// /healthz and is independent of harness.KeyVersion.
const Version = "svmd/1"

// Config parameterizes a Server.
type Config struct {
	// Parallel bounds concurrently executing simulations (0 = one per
	// CPU, via the harness session default).
	Parallel int
	// QueueDepth bounds admitted-but-not-running jobs; a full queue
	// rejects submissions with 429 (0 = 4x the worker count).
	QueueDepth int
	// StoreDir is the persistent result store's directory ("" disables
	// persistence — useful in tests, pointless in production).
	StoreDir string
	// StoreMaxBytes bounds the store's payload bytes (0 = store default).
	StoreMaxBytes int64
	// Logger receives the daemon's structured job and service logs (nil
	// disables service logging entirely; the instrumented paths are
	// nil-checked, never defaulted to a discarding handler).
	Logger *slog.Logger
	// SLO is the per-job execution-latency objective.  A job whose
	// wall-clock execution exceeds it counts an svmd_slo_breaches_total
	// and triggers a flight-recorder dump (0 disables the check).
	SLO time.Duration
	// DebugDir receives flight-recorder dumps — the last-N lifecycle
	// records plus a short CPU profile, written when a job fails or
	// breaches the SLO.  "" disables dumping to disk; the in-memory ring
	// still records.
	DebugDir string
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrDraining rejects submissions while the daemon drains (503).
	ErrDraining = errors.New("server draining")
	// ErrQueueFull rejects submissions when the admission queue is at
	// capacity (429 + Retry-After).
	ErrQueueFull = errors.New("job queue full")
	// ErrUnavailable marks an executor's refusal to admit work (503):
	// a standby coordinator, for one.
	ErrUnavailable = errors.New("service unavailable")
)

// Executor decides where admitted jobs run.  The front end calls every
// method but Close with its job-table lock held; an executor that acts
// on its own (a lease poll, a completion) takes that lock through
// Server.Lock and ends jobs through FinishLocked.
type Executor interface {
	// Admit reports whether new work may enter (nil, or an error
	// wrapping ErrUnavailable).
	Admit() error
	// Enqueue places a newly admitted job and names its dispatch target
	// ("" for local execution).  A non-nil row answers the job at
	// admission from the executor's cache; ErrQueueFull rejects it.
	Enqueue(j *Job) (worker string, hit *harness.RunRow, err error)
	// Cancel withdraws a live job and reports whether the front end
	// should finish it as canceled now (false: the execution that holds
	// it ends it through its cancelled context).
	Cancel(j *Job) bool
	// Sweep records a sweep registered over already-admitted jobs.
	Sweep(id string, jobs []*Job)
	// Load reports capacity and role for /metrics and /healthz.
	Load() Load
	// Close stops the executor once the front end refuses new work,
	// waiting for admitted jobs until ctx expires.
	Close(ctx context.Context) error
}

// Load is an executor's capacity snapshot.
type Load struct {
	// Capacity bounds admitted-but-not-started jobs; Workers is the
	// execution bound (simulation slots, or joined cluster workers).
	Capacity, Workers int
	// Role and Epoch are set by cluster coordinators ("" on a daemon).
	Role  string
	Epoch int64
}

// Job is one admitted simulation (or store lookup).  Mutable fields are
// guarded by the front end's lock; done is closed exactly once when the
// job reaches a terminal state.
type Job struct {
	id   string
	key  string // spec content key (store address)
	ckey string // coalescing key (content key + request shape)
	req  api.RunRequest

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	state    string
	worker   string // cluster dispatch target or executor ("" = local)
	cached   bool
	row      *harness.RunRow
	err      error
	watchers int  // wait=1 requests currently parked on done
	detached bool // survives watcher disconnects (async submit, sweeps)
	enqueued time.Time
	started  time.Time
	wall     time.Duration
	spans    *obs.Spans // wall-clock lifecycle spans (queue/sim/store/respond)

	sweeps []*sweepState
}

// ID is the job's handle ("j<seq>").
func (j *Job) ID() string { return j.id }

// Request is the job's submitted request.
func (j *Job) Request() api.RunRequest { return j.req }

// Key is the spec's content key.
func (j *Job) Key() string { return j.key }

// CoalesceKey is the content key plus the request shape: the address of
// the job's row, which a speedup request annotates.
func (j *Job) CoalesceKey() string { return j.ckey }

func (j *Job) terminal() bool {
	switch j.state {
	case api.StateDone, api.StateFailed, api.StateCanceled:
		return true
	}
	return false
}

type sweepState struct {
	id   string
	jobs []*Job
}

// Server is the experiment service.  Construct with New (or NewWith),
// serve Handler(), stop with Drain.
type Server struct {
	cfg      Config
	executor Executor
	ses      *harness.Session
	st       *store.Store
	bus      *EventBus
	met      *svmdMetrics
	log      *slog.Logger // nil = service logging disabled
	flight   *obs.Flight
	// dumps counts async flight-recorder dumps still writing; Drain
	// waits for them so a dump is never cut off by exit.
	dumps sync.WaitGroup
	// runFn executes one spec; tests substitute it to make scheduling
	// behavior (backpressure, cancellation) deterministic.
	runFn func(context.Context, harness.RunSpec) (*harness.Result, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu         sync.Mutex
	jobs       map[string]*Job
	inflight   map[string]*Job // coalescing key -> queued/running job
	sweeps     map[string]*sweepState
	stateCount map[string]int
	nextJob    int64
	nextSweep  int64
	draining   bool
	// explorations is the /explore table in submission order; "e<n>"
	// is the n-th entry.
	explorations []*exploration

	start time.Time
}

// New builds a daemon: the front end over the local executor, whose
// workers it starts.
func New(cfg Config) (*Server, error) {
	return NewWith(cfg, func(s *Server) Executor {
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = 4 * s.ses.Parallelism()
		}
		return newLocalExec(s, depth)
	})
}

// NewWith builds a front end over the executor mk returns.  The session
// still runs in-process work: GET /runs/{id}/trace re-runs, and the
// local executor's simulations.
func NewWith(cfg Config, mk func(*Server) Executor) (*Server, error) {
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir, cfg.StoreMaxBytes); err != nil {
			return nil, err
		}
		st.SetLogger(cfg.Logger)
	}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	met := newSvmdMetrics(start)
	s := &Server{
		cfg:        cfg,
		ses:        harness.NewSession(cfg.Parallel),
		st:         st,
		bus:        NewEventBus(met.sseEvents, met.sseDropped),
		met:        met,
		log:        cfg.Logger,
		flight:     obs.NewFlight(obs.DefaultFlightRecords, cfg.DebugDir, time.Second),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		sweeps:     make(map[string]*sweepState),
		stateCount: make(map[string]int),
		start:      start,
	}
	s.runFn = s.ses.RunCtx
	s.ses.SetObserver(met)
	met.registerServer(s)
	s.executor = mk(s)
	return s, nil
}

// RunnerStats exposes the in-process memoization counters (simulations
// actually executed, memo hits, coalesced waits).
func (s *Server) RunnerStats() harness.Stats { return s.ses.Stats() }

// StoreStats exposes the persistent store's counters (zero value when
// persistence is disabled).
func (s *Server) StoreStats() store.Stats {
	if s.st == nil {
		return store.Stats{}
	}
	return s.st.Stats()
}

// ValidateRequest rejects requests the daemon cannot (or will not)
// serve before they consume a queue slot: specs RunSpec.Validate
// refuses, and traced runs.
func ValidateRequest(req api.RunRequest) error {
	if err := req.Spec.Validate(); err != nil {
		return err
	}
	if req.Spec.Trace {
		return errors.New("traced runs are not served remotely: trace capture is an in-process artifact (run svmsim -trace locally)")
	}
	return nil
}

// SetRunFunc substitutes the function that executes one spec (the
// default runs it through the memoized session).  It is the seam the
// cluster tests use to make execution latency deterministic — install
// it before the server receives traffic.
func (s *Server) SetRunFunc(fn func(context.Context, harness.RunSpec) (*harness.Result, error)) {
	s.runFn = fn
}

// SimsInFlight reports how many simulations currently occupy a
// session worker slot; Parallelism() - SimsInFlight() is the node's
// idle capacity, which the cluster worker agent uses to size its lease
// requests.
func (s *Server) SimsInFlight() int { return s.ses.InFlight() }

// Parallelism reports the concurrent-simulation bound.
func (s *Server) Parallelism() int { return s.ses.Parallelism() }

// Execute runs one request end-to-end through the daemon's normal
// admission path — store probe, memoized session, single-flight
// coalescing, write-back, metrics and SSE events — and returns the
// terminal row.  It is the entry point the cluster worker agent uses to
// run leased jobs on the local engine: a leased job is indistinguishable
// from a locally submitted one, so the worker's persistent store warms
// exactly as if the spec had been requested directly (that store is the
// cluster's distributed cache tier).  The job is detached: ctx
// cancellation abandons the wait, not the job.
func (s *Server) Execute(ctx context.Context, req api.RunRequest) (*harness.RunRow, bool, error) {
	j, _, err := s.submit(req, true)
	if err != nil {
		return nil, false, err
	}
	return s.await(ctx, j)
}

// await parks until j is terminal (or ctx ends) and returns its row,
// cache flag and error.
func (s *Server) await(ctx context.Context, j *Job) (*harness.RunRow, bool, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == api.StateDone {
		return j.row, j.cached, nil
	}
	if j.err != nil {
		return nil, false, j.err
	}
	return nil, false, fmt.Errorf("job %s terminal in state %s without error", j.id, j.state)
}

// admitLocked gates new work: the front end's drain, then the
// executor's own rule.
func (s *Server) admitLocked() error {
	if s.draining {
		return ErrDraining
	}
	return s.executor.Admit()
}

// submit admits a request: coalesce onto an identical in-flight job, or
// create one and hand it to the executor (created reports which).
// detached jobs survive watcher disconnects (async submissions, sweep
// points).
func (s *Server) submit(req api.RunRequest, detached bool) (j *Job, created bool, err error) {
	key, ckey := jobKeys(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(); err != nil {
		return nil, false, err
	}
	if j, ok := s.inflight[ckey]; ok {
		if detached {
			j.detached = true
		}
		s.met.coalesced.Inc()
		return j, false, nil
	}
	s.nextJob++
	j = s.newJobLocked("j"+strconv.FormatInt(s.nextJob, 10), key, ckey, req, detached)
	worker, hit, err := s.executor.Enqueue(j)
	if err != nil {
		s.nextJob--
		j.cancel()
		return nil, false, err
	}
	s.addJobLocked(j, worker)
	if hit != nil {
		s.FinishLocked(j, worker, hit, true, nil)
	}
	return j, true, nil
}

// jobKeys returns a request's content key and its coalescing key: the
// content key plus the request shape, which addresses the job's row.
func jobKeys(req api.RunRequest) (key, ckey string) {
	key = req.Spec.Key()
	if req.Speedup {
		return key, key + "+speedup"
	}
	return key, key
}

// newJobLocked builds a queued job whose context carries its ID, so
// every log line the layers below emit on its behalf is attributed.
func (s *Server) newJobLocked(id, key, ckey string, req api.RunRequest, detached bool) *Job {
	ctx, cancel := context.WithCancel(obs.WithJob(s.baseCtx, id))
	if s.log != nil {
		ctx = obs.WithLogger(ctx, s.log)
	}
	return &Job{
		id: id, key: key, ckey: ckey, req: req,
		ctx: ctx, cancel: cancel,
		done:     make(chan struct{}),
		state:    api.StateQueued,
		detached: detached,
		enqueued: time.Now(),
		spans:    obs.NewSpans(),
	}
}

// addJobLocked enters a placed job into the table and announces it.
func (s *Server) addJobLocked(j *Job, worker string) {
	j.worker = worker
	if s.log != nil {
		s.log.LogAttrs(j.ctx, slog.LevelInfo, "job queued",
			slog.String("app", j.req.Spec.App),
			slog.String("protocol", string(j.req.Spec.Protocol)),
			slog.Int("procs", j.req.Spec.Procs),
			slog.Bool("speedup", j.req.Speedup),
			slog.String("worker", worker))
	}
	s.met.created.Inc()
	s.flight.Record(j.id, api.StateQueued, j.req.Spec.App+"/"+string(j.req.Spec.Protocol))
	s.jobs[j.id] = j
	if _, ok := s.inflight[j.ckey]; !ok {
		s.inflight[j.ckey] = j
	}
	s.stateCount[api.StateQueued]++
	s.bus.Publish(api.Event{Type: "jobQueued", Job: statusLocked(j), Worker: worker})
}

// Lock and Unlock guard the job table.  An executor holds them around
// its own entry points and calls the *Locked methods inside.
func (s *Server) Lock()   { s.mu.Lock() }
func (s *Server) Unlock() { s.mu.Unlock() }

// JobLocked looks a job up by ID (nil if unknown).
func (s *Server) JobLocked(id string) *Job { return s.jobs[id] }

// ReplayJobLocked enters a job admitted elsewhere under its original,
// not yet known ID — a standby coordinator replaying its primary's log.
// It is not handed to the executor.
func (s *Server) ReplayJobLocked(id string, req api.RunRequest) *Job {
	key, ckey := jobKeys(req)
	j := s.newJobLocked(id, key, ckey, req, true)
	s.addJobLocked(j, "")
	s.nextJob = max(s.nextJob, idSeq(id))
	return j
}

// ReplaySweepLocked registers a sweep admitted elsewhere under its
// original ID, over the jobs already replayed.
func (s *Server) ReplaySweepLocked(id string, jobIDs []string) {
	var jobs []*Job
	for _, jid := range jobIDs {
		if j := s.jobs[jid]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.addSweepLocked(id, jobs)
}

// addSweepLocked registers a sweep over admitted jobs.
func (s *Server) addSweepLocked(id string, jobs []*Job) *sweepState {
	sw := &sweepState{id: id, jobs: jobs}
	s.sweeps[id] = sw
	s.nextSweep = max(s.nextSweep, idSeq(id))
	for _, j := range jobs {
		j.sweeps = append(j.sweeps, sw)
	}
	return sw
}

// idSeq extracts the number of a "j<n>" or "s<n>" ID (0 if malformed).
func idSeq(id string) (n int64) {
	fmt.Sscanf(id, "%c%d", new(rune), &n)
	return n
}

// MoveLocked records an executor's scheduling decision for a live job:
// its state (queued or running) and its dispatch target.  A state
// change is published; starting a job closes its queue span.
func (s *Server) MoveLocked(j *Job, state, worker string) {
	j.worker = worker
	if j.state == state {
		return
	}
	s.setStateLocked(j, state)
	typ := "jobQueued"
	if state == api.StateRunning {
		typ = "jobStarted"
		j.started = time.Now()
		j.spans.Add(obs.SpanQueue, j.enqueued, j.started)
		s.met.queueWait.Observe(j.started.Sub(j.enqueued).Seconds())
	}
	s.flight.Record(j.id, state, worker)
	s.bus.Publish(api.Event{Type: typ, Job: statusLocked(j), Worker: worker})
}

// FinishLocked is the single finish path: it moves a live job to its
// terminal state (done, or canceled/failed by err), publishes the
// transition and unparks watchers.  A job already terminal is left
// alone.
func (s *Server) FinishLocked(j *Job, worker string, row *harness.RunRow, cached bool, err error) {
	if j.terminal() {
		return
	}
	respond := time.Now()
	j.worker = worker
	if !j.started.IsZero() {
		j.wall = respond.Sub(j.started)
		s.met.runDur.Observe(j.wall.Seconds())
	}
	switch {
	case err == nil:
		j.row = row
		j.cached = cached
		s.setStateLocked(j, api.StateDone)
		s.met.jobsDone.Inc()
		if row != nil {
			if n, ok := row.Counters["retransmits"]; ok && n > 0 {
				s.met.retransmits.Add(n)
				s.met.jobRetrans.Observe(float64(n))
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.err = err
		s.setStateLocked(j, api.StateCanceled)
		s.met.jobsCanceled.Inc()
	default:
		j.err = err
		s.setStateLocked(j, api.StateFailed)
		s.met.jobsFailed.Inc()
	}
	msg := ""
	if j.err != nil {
		msg = j.err.Error()
	}
	s.flight.Record(j.id, j.state, msg)
	if s.inflight[j.ckey] == j {
		delete(s.inflight, j.ckey)
	}
	j.cancel()
	close(j.done)
	typ := map[string]string{
		api.StateDone:     "jobDone",
		api.StateFailed:   "jobFailed",
		api.StateCanceled: "jobCanceled",
	}[j.state]
	s.bus.Publish(api.Event{Type: typ, Job: statusLocked(j), Worker: worker})
	for _, sw := range j.sweeps {
		s.bus.Publish(api.Event{Type: "sweepProgress", Sweep: sweepStatusLocked(sw, false)})
	}
	j.spans.Add(obs.SpanRespond, respond, time.Now())
}

// cancelLocked cancels a live job: its context is cancelled, and the
// executor either withdraws it (finished here) or lets the execution
// holding it end it.  Reports whether the job was still live.
func (s *Server) cancelLocked(j *Job) bool {
	if j.terminal() {
		return false
	}
	j.cancel()
	if s.executor.Cancel(j) {
		s.FinishLocked(j, j.worker, nil, false, context.Canceled)
	}
	return true
}

func (s *Server) setStateLocked(j *Job, state string) {
	s.stateCount[j.state]--
	j.state = state
	s.stateCount[state]++
}

// Publish sends an executor's own event (membership, failover) on the
// front end's SSE bus.
func (s *Server) Publish(e api.Event) { s.bus.Publish(e) }

// Registry is the front end's metrics registry, on which an executor
// registers its own series.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// Store is the front end's persistent result store (nil without one).
func (s *Server) Store() *store.Store { return s.st }

// waitJob parks until the job finishes or the watcher's request
// context is cancelled.  A queued job abandoned by its last watcher is
// cancelled — the client that wanted it is gone — unless it is detached.
func (s *Server) waitJob(ctx context.Context, j *Job) error {
	s.mu.Lock()
	j.watchers++
	s.mu.Unlock()
	select {
	case <-j.done:
		s.mu.Lock()
		j.watchers--
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		j.watchers--
		if j.watchers == 0 && !j.detached && j.state == api.StateQueued {
			s.cancelLocked(j)
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// statusLocked snapshots a job.  Caller holds s.mu.
func statusLocked(j *Job) *api.RunStatus {
	st := &api.RunStatus{
		ID: j.id, Key: j.key, State: j.state, Cached: j.cached, Row: j.row,
		Worker: j.worker,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.wall > 0 {
		st.WallMS = j.wall.Milliseconds()
	}
	return st
}

func sweepStatusLocked(sw *sweepState, includePoints bool) *api.SweepStatus {
	st := &api.SweepStatus{ID: sw.id, Total: len(sw.jobs)}
	for _, j := range sw.jobs {
		switch j.state {
		case api.StateDone:
			st.Done++
		case api.StateFailed, api.StateCanceled:
			st.Failed++
		}
		if includePoints {
			st.Points = append(st.Points, *statusLocked(j))
		}
	}
	return st
}

// Metrics snapshots the daemon's observable state.
func (s *Server) Metrics() api.Metrics {
	s.mu.Lock()
	jobs := make(map[string]int, len(s.stateCount))
	for k, v := range s.stateCount {
		if v != 0 {
			jobs[k] = v
		}
	}
	load := s.executor.Load()
	m := api.Metrics{
		UptimeSec:  time.Since(s.start).Seconds(),
		Draining:   s.draining,
		QueueDepth: s.stateCount[api.StateQueued],
		QueueCap:   load.Capacity,
		InFlight:   s.stateCount[api.StateRunning],
		Workers:    load.Workers,
		Jobs:       jobs,
	}
	s.mu.Unlock()
	m.Store = s.StoreStats()
	m.StoreHitRatio = m.Store.HitRatio()
	m.Runner = s.RunnerStats()
	m.Process = obs.ReadProcess(s.start)
	return m
}

// Drain gracefully stops the service: new submissions are rejected with
// ErrDraining, explorations stop, and the executor closes — on a daemon,
// queued and running jobs finish normally, and if ctx expires first the
// remaining job contexts are cancelled (queued work aborts; a
// simulation that already started completes and is stored).  The store
// needs no explicit flush — every Put is already durable via temp-file
// + rename.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	explorations := s.explorations
	if !already {
		// Cancel in the section that sets draining, so a driver refused
		// a submission for draining finds its search already cancelled.
		for _, x := range explorations {
			x.cancel()
		}
	}
	s.mu.Unlock()
	if already {
		return errors.New("server: already draining")
	}
	s.bus.Publish(api.Event{Type: "drain"})

	// Stop the auto-tuner first: wait for the cancelled explorations'
	// drivers.  Drivers unpark promptly — their evaluator waits select
	// on the exploration context — while the point jobs they already
	// queued drain through the executor like any other job.
	for _, x := range explorations {
		<-x.done
	}
	err := s.executor.Close(ctx)
	s.dumps.Wait()
	s.baseCancel()
	s.bus.Close()
	return err
}
