package server

import (
	"time"

	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// svmdMetrics bundles the daemon's Prometheus instruments: the
// wall-clock latency histograms of the job pipeline (queue wait, run
// duration, store traffic), lifetime counters, and scrape-time gauges
// bridged to state that already has a synchronized source of truth
// (queue depth, store stats, runner stats, the Go runtime).
//
// It also implements harness.Observer, so the session reports
// per-simulation slot wait and run duration without the harness
// knowing about Prometheus.
type svmdMetrics struct {
	reg *obs.Registry

	queueWait  *obs.Histogram // enqueue -> worker pickup
	runDur     *obs.Histogram // worker pickup -> terminal state
	simSlot    *obs.Histogram // pool slot wait per executed simulation
	simDur     *obs.Histogram // simulation execution wall time
	storeGet   *obs.Histogram
	storePut   *obs.Histogram
	jobRetrans *obs.Histogram // simulated retransmissions per completed job

	jobsDone     *obs.Counter
	jobsFailed   *obs.Counter
	jobsCanceled *obs.Counter
	created      *obs.Counter
	coalesced    *obs.Counter
	sloBreaches  *obs.Counter
	retransmits  *obs.Counter
	sseEvents    *obs.Counter
	sseDropped   *obs.Counter
	flightDumps  *obs.Counter
}

func newSvmdMetrics(start time.Time) *svmdMetrics {
	reg := obs.NewRegistry()
	m := &svmdMetrics{reg: reg}

	m.queueWait = reg.Histogram("svmd_queue_wait_seconds",
		"Time jobs spend in the admission queue before a worker picks them up.",
		"", obs.DefBuckets)
	m.runDur = reg.Histogram("svmd_run_seconds",
		"Job execution wall time from worker pickup to terminal state (queue wait excluded).",
		"", obs.DefBuckets)
	m.simSlot = reg.Histogram("svmd_sim_slot_wait_seconds",
		"Time executed simulations wait for a memoization-pool worker slot.",
		"", obs.DefBuckets)
	m.simDur = reg.Histogram("svmd_sim_run_seconds",
		"Wall time of actually executed simulations (memo hits excluded).",
		"", obs.DefBuckets)
	m.storeGet = reg.Histogram("svmd_store_get_seconds",
		"Persistent result store lookup latency.", "", obs.DefBuckets)
	m.storePut = reg.Histogram("svmd_store_put_seconds",
		"Persistent result store write-back latency.", "", obs.DefBuckets)
	m.jobRetrans = reg.Histogram("svmd_job_retransmits",
		"Simulated transport retransmissions per completed job.",
		"", obs.CountBuckets)

	m.jobsDone = reg.Counter("svmd_jobs_total",
		"Jobs reaching a terminal state, by state.", `state="done"`)
	m.jobsFailed = reg.Counter("svmd_jobs_total",
		"Jobs reaching a terminal state, by state.", `state="failed"`)
	m.jobsCanceled = reg.Counter("svmd_jobs_total",
		"Jobs reaching a terminal state, by state.", `state="canceled"`)
	m.created = reg.Counter("svmd_submissions_total",
		"Admitted submissions, by whether they created a job or coalesced onto an in-flight one.",
		`kind="created"`)
	m.coalesced = reg.Counter("svmd_submissions_total",
		"Admitted submissions, by whether they created a job or coalesced onto an in-flight one.",
		`kind="coalesced"`)
	m.sloBreaches = reg.Counter("svmd_slo_breaches_total",
		"Jobs whose execution wall time exceeded the configured latency SLO.", "")
	m.retransmits = reg.Counter("svmd_retransmits_total",
		"Simulated transport retransmissions summed over completed jobs.", "")
	m.sseEvents = reg.Counter("svmd_sse_events_total",
		"Lifecycle events published to the SSE bus.", "")
	m.sseDropped = reg.Counter("svmd_sse_dropped_frames_total",
		"SSE frames dropped because a subscriber's buffer was full.", "")
	m.flightDumps = reg.Counter("svmd_flight_dumps_total",
		"Flight-recorder dumps written (job failures and SLO breaches).", "")

	obs.RegisterProcess(reg, start)
	return m
}

// registerServer adds the scrape-time gauges and bridged counters that
// read live server state.  Called once from NewWith, before the server
// serves traffic; the callbacks take s.mu / the stats locks briefly and
// never block on job execution (s.mu is never held across a
// simulation).
func (m *svmdMetrics) registerServer(s *Server) {
	load := func(get func(Load) int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(get(s.executor.Load()))
		}
	}
	jobs := func(state string) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.stateCount[state])
		}
	}
	m.reg.GaugeFunc("svmd_queue_depth",
		"Jobs admitted but not yet picked up by a worker.", "",
		jobs(api.StateQueued))
	m.reg.GaugeFunc("svmd_queue_capacity",
		"Admission queue capacity.", "",
		load(func(l Load) int { return l.Capacity }))
	m.reg.GaugeFunc("svmd_inflight_jobs",
		"Jobs currently executing on workers.", "",
		jobs(api.StateRunning))
	m.reg.GaugeFunc("svmd_workers",
		"Execution bound: simulation slots on a daemon, joined workers on a coordinator.", "",
		load(func(l Load) int { return l.Workers }))
	m.reg.GaugeFunc("svmd_draining",
		"1 while the daemon drains, else 0.", "",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("svmd_sse_subscribers",
		"Connected SSE event-stream subscribers.", "",
		func() float64 { return float64(s.bus.SubscriberCount()) })

	storeStat := func(get func() int64) func() float64 {
		return func() float64 { return float64(get()) }
	}
	m.reg.CounterFunc("svmd_store_ops_total",
		"Persistent store traffic, by outcome.", `op="hit"`,
		storeStat(func() int64 { return s.StoreStats().Hits }))
	m.reg.CounterFunc("svmd_store_ops_total",
		"Persistent store traffic, by outcome.", `op="miss"`,
		storeStat(func() int64 { return s.StoreStats().Misses }))
	m.reg.CounterFunc("svmd_store_ops_total",
		"Persistent store traffic, by outcome.", `op="put"`,
		storeStat(func() int64 { return s.StoreStats().Puts }))
	m.reg.CounterFunc("svmd_store_ops_total",
		"Persistent store traffic, by outcome.", `op="eviction"`,
		storeStat(func() int64 { return s.StoreStats().Evictions }))
	m.reg.CounterFunc("svmd_store_ops_total",
		"Persistent store traffic, by outcome.", `op="corrupt"`,
		storeStat(func() int64 { return s.StoreStats().Corrupt }))
	m.reg.GaugeFunc("svmd_store_entries",
		"Resident persistent-store entries.", "",
		storeStat(func() int64 { return int64(s.StoreStats().Entries) }))
	m.reg.GaugeFunc("svmd_store_bytes",
		"Resident persistent-store payload bytes.", "",
		storeStat(func() int64 { return s.StoreStats().Bytes }))

	m.reg.CounterFunc("svmd_sim_total",
		"Memoization-pool traffic, by outcome.", `kind="run"`,
		storeStat(func() int64 { return s.RunnerStats().Runs }))
	m.reg.CounterFunc("svmd_sim_total",
		"Memoization-pool traffic, by outcome.", `kind="hit"`,
		storeStat(func() int64 { return s.RunnerStats().Hits }))
	m.reg.CounterFunc("svmd_sim_total",
		"Memoization-pool traffic, by outcome.", `kind="wait"`,
		storeStat(func() int64 { return s.RunnerStats().Waits }))

	// The exploration table keeps every search, so its lifetime totals
	// are sums over it.
	explored := func(f func(*exploration) int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, x := range s.explorations {
				n += f(x)
			}
			return float64(n)
		}
	}
	inState := func(state string) func() float64 {
		return explored(func(x *exploration) int {
			if x.state == state {
				return 1
			}
			return 0
		})
	}
	m.reg.GaugeFunc("svmd_explore_active", "Explorations currently running.", "",
		inState(api.StateRunning))
	for _, state := range []string{api.StateDone, api.StateFailed, api.StateCanceled} {
		m.reg.CounterFunc("svmd_explore_total", "Explorations by terminal state.",
			`state="`+state+`"`, inState(state))
	}
	m.reg.CounterFunc("svmd_explore_batches_total", "Candidate batches evaluated.", "",
		explored(func(x *exploration) int { return x.prog.Batches }))
	m.reg.CounterFunc("svmd_explore_evaluations_total", "Point evaluations by cache outcome.",
		`outcome="sim"`, explored(func(x *exploration) int { return x.prog.SimsRun }))
	m.reg.CounterFunc("svmd_explore_evaluations_total", "Point evaluations by cache outcome.",
		`outcome="cached"`, explored(func(x *exploration) int { return x.prog.CachedHits }))
	m.reg.CounterFunc("svmd_explore_frontier_points_total", "Pareto frontier points discovered.", "",
		explored(func(x *exploration) int { return len(x.frontier) }))
}

// RunStart / RunEnd implement harness.Observer for the session.
func (m *svmdMetrics) RunStart(queueWait time.Duration) {
	m.simSlot.Observe(queueWait.Seconds())
}

func (m *svmdMetrics) RunEnd(run time.Duration, err error) {
	m.simDur.Observe(run.Seconds())
}
