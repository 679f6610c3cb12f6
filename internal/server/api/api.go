// Package api defines the wire types of the svmd experiment service —
// the JSON bodies exchanged over /runs, /sweeps, /events and /metrics.
// It is shared by the server and the thin client so both CLIs, the
// daemon and the CI smoke tests speak one format, and it builds on the
// harness's own types: requests carry RunSpec verbatim, responses carry
// harness.RunRow (the same shape svmsim -json prints and the persistent
// store holds).
package api

import (
	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/obs"
	"swsm/internal/store"
)

// Job states, in lifecycle order.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// RunRequest submits one simulation.  The spec is the harness's own
// RunSpec; unset fields keep their zero values, so a minimal request is
// `{"spec":{"App":"fft","Protocol":"hlrc","Procs":16,...}}` — clients
// typically start from harness.DefaultSpec.  Traced specs are rejected:
// trace capture is an in-process artifact the service cannot return.
type RunRequest struct {
	Spec harness.RunSpec `json:"spec"`
	// Speedup additionally resolves the app's canonical sequential
	// baseline (cached like any other spec) and annotates the result row
	// with SeqCycles and Speedup.
	Speedup bool `json:"speedup,omitempty"`
}

// RunStatus describes a submitted job.
type RunStatus struct {
	// ID is the job handle for GET/DELETE /runs/{id}.  Identical
	// concurrent requests coalesce onto one job and share an ID.
	ID string `json:"id"`
	// Key is the spec's stable content key (the persistent-store address).
	Key   string `json:"key"`
	State string `json:"state"`
	// Cached reports that the result was served from the persistent
	// store without simulating.
	Cached bool `json:"cached,omitempty"`
	// Row is the result, present once State is "done".
	Row *harness.RunRow `json:"row,omitempty"`
	// Error is the failure message, present once State is "failed".
	Error string `json:"error,omitempty"`
	// WallMS is the job's wall-clock execution time in milliseconds
	// (queue wait excluded), present once the job left the queue.
	WallMS int64 `json:"wallMs,omitempty"`
	// Worker names the cluster worker the job is dispatched to or was
	// executed by; absent on plain (non-coordinator) daemons.
	Worker string `json:"worker,omitempty"`
}

// SweepRequest submits a batch of points that execute as one tracked
// unit over the daemon's scheduler.  Points deduplicate against
// everything else in flight exactly like individual runs.
type SweepRequest struct {
	Points []RunRequest `json:"points"`
}

// SweepStatus describes a sweep and its per-point jobs, in submission
// order.
type SweepStatus struct {
	ID     string      `json:"id"`
	Total  int         `json:"total"`
	Done   int         `json:"done"`
	Failed int         `json:"failed"`
	Points []RunStatus `json:"points"`
}

// Event is one frame of the /events SSE stream: every job lifecycle
// transition, with the completed row (stats-layer breakdown included)
// on "jobDone" frames, plus sweep progress ticks.
type Event struct {
	// Seq is a monotonically increasing frame number (per daemon).
	Seq int64 `json:"seq"`
	// Type is one of jobQueued, jobStarted, jobDone, jobFailed,
	// jobCanceled, sweepProgress, drain — plus the auto-tuner's
	// exploreStarted, exploreProgress, exploreFrontier, exploreDone,
	// exploreFailed and exploreCanceled.
	Type string `json:"type"`
	// Job carries the job's status for job* events.
	Job *RunStatus `json:"job,omitempty"`
	// Sweep carries progress for sweepProgress events.
	Sweep *SweepStatus `json:"sweep,omitempty"`
	// Explore carries the exploration's status snapshot for explore*
	// events (per-batch progress scalars; frontier-update frames list
	// the newly discovered Pareto points under progress.newPoints).
	Explore *ExploreStatus `json:"explore,omitempty"`
	// Worker names the cluster worker involved, on coordinator streams:
	// the executor on job* frames, the subject on workerJoined,
	// workerLost and failover frames.
	Worker string `json:"worker,omitempty"`
}

// ExploreStatus describes an exploration (POST/GET /explore): the
// daemon's id, state and wall clock around the search's own Report.
// Its State is running until the search ends done, failed or canceled.
type ExploreStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error is set for failed and canceled explorations.
	Error string `json:"error,omitempty"`
	// WallMS is the exploration's wall-clock duration, set on
	// completion.
	WallMS int64 `json:"wallMs,omitempty"`
	// Report is the search so far: its counters as of the latest batch
	// and the frontier discovered so far (complete on terminal
	// statuses).  On exploreFrontier events Progress.NewPoints carries
	// the points just added; elsewhere it is empty.
	explore.Report
}

// Exploration event types on the /events stream.
const (
	EventExploreStarted  = "exploreStarted"
	EventExploreProgress = "exploreProgress"
	EventExploreFrontier = "exploreFrontier"
	EventExploreDone     = "exploreDone"
	EventExploreFailed   = "exploreFailed"
	EventExploreCanceled = "exploreCanceled"
)

// Metrics is the GET /metrics body.
type Metrics struct {
	UptimeSec float64 `json:"uptimeSec"`
	Draining  bool    `json:"draining"`
	// QueueDepth/QueueCap describe the admission queue; InFlight counts
	// jobs currently executing on workers.
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
	InFlight   int `json:"inFlight"`
	Workers    int `json:"workers"`
	// Jobs counts jobs by state over the daemon's lifetime.
	Jobs map[string]int `json:"jobs"`
	// Store reports the persistent result store's traffic and residency;
	// StoreHitRatio is Hits/(Hits+Misses).
	Store         store.Stats `json:"store"`
	StoreHitRatio float64     `json:"storeHitRatio"`
	// Runner reports the session memo underneath the scheduler
	// (simulations actually executed, memo hits, coalesced waits).
	Runner harness.Stats `json:"runner"`
	// Process reports Go process health: uptime, goroutine count, heap
	// residency and GC totals.  Added with the observability plane;
	// older clients that don't know the field simply ignore it.
	Process obs.ProcessStats `json:"process"`
}

// Health is the GET /healthz body.
type Health struct {
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining"`
	Version  string `json:"version"`
	// KeyVersion is the RunSpec content-key version the daemon computes;
	// clients comparing stored keys across daemons should check it.
	KeyVersion int `json:"keyVersion"`
	// Role and Epoch are reported by cluster coordinators ("primary" or
	// "standby", and the current coordination epoch); absent on plain
	// daemons.
	Role  string `json:"role,omitempty"`
	Epoch int64  `json:"epoch,omitempty"`
	// Workers counts live joined workers (coordinators only).
	Workers int `json:"workers,omitempty"`
}

// ---------------------------------------------------------------------------
// Cluster protocol: the wire types of the coordinator <-> worker lease
// protocol and the coordinator <-> standby replication log.  Workers
// pull: a lease request registers the node on first contact, doubles as
// the heartbeat, names the jobs the worker holds, and hands out queued
// jobs (its own ring share first, then stolen stragglers); a complete
// reports the terminal row.  Every message carries the sender's
// last-seen epoch so a superseded coordinator can be fenced.

// Cluster coordinator roles.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)

// ClusterLeaseRequest asks for up to Max jobs and reports the jobs the
// worker holds.  The first request from a worker registers it; a
// request with Max 0 is a pure heartbeat.
type ClusterLeaseRequest struct {
	// WorkerID is the worker's stable identity (ring placement hashes
	// it, so it must survive worker restarts for cache locality to).
	WorkerID string `json:"workerId"`
	// Slots is the worker's concurrent-simulation bound, reported for
	// observability and steal heuristics.
	Slots int `json:"slots"`
	Max   int `json:"max"`
	// Held is the lease: every job granted to this worker that Held
	// does not name is re-dispatched before anything new is granted.
	// That is sound because one worker's polls are serial: a grant is
	// marked held before the next poll is sent, and a job is unmarked
	// only after a coordinator has answered its completion.  So a
	// retried or reordered poll lacks only grants the worker never
	// received, and a worker restarted under the same ID gives back
	// everything its old process held on its first poll.  Names of jobs
	// not leased to this worker are ignored.
	Held []string `json:"held,omitempty"`
	// Epoch is the highest coordination epoch the worker has seen.
	Epoch int64 `json:"epoch"`
}

// ClusterLeasedJob is one job handed to a worker.
type ClusterLeasedJob struct {
	ID  string     `json:"id"`
	Req RunRequest `json:"req"`
	// Stolen marks a job taken from another worker's dispatch queue
	// (the thief was idle; the ring home was a straggler).
	Stolen bool `json:"stolen,omitempty"`
}

// ClusterLeaseResponse carries leased jobs and the coordinator's epoch.
type ClusterLeaseResponse struct {
	Epoch int64              `json:"epoch"`
	Role  string             `json:"role"`
	Jobs  []ClusterLeasedJob `json:"jobs,omitempty"`
}

// ClusterCompleteRequest reports one leased job's terminal result.
// Completion is idempotent at the coordinator: a job already terminal
// (completed by a steal race or an earlier attempt) is acknowledged as
// a duplicate and its result discarded — results are content-addressed
// and deterministic, so the first row is the row.
type ClusterCompleteRequest struct {
	WorkerID string `json:"workerId"`
	JobID    string `json:"jobId"`
	Epoch    int64  `json:"epoch"`
	// Row is the result on success (nil when Error is set).
	Row *harness.RunRow `json:"row,omitempty"`
	// Cached reports the worker answered from its own cache tier
	// (persistent store or memo) without simulating.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ClusterCompleteResponse acknowledges a completion.
type ClusterCompleteResponse struct {
	Epoch     int64 `json:"epoch"`
	Duplicate bool  `json:"duplicate,omitempty"`
}

// Cluster log record types, the replicated coordinator state: every
// submission, terminal transition and membership change, in sequence
// order.  A standby replaying the log from 1 reconstructs the job
// table; everything else (queue placement, leases) is derived state the
// new primary rebuilds from the ring.
const (
	ClusterLogSubmit   = "submit"
	ClusterLogComplete = "complete"
	ClusterLogCancel   = "cancel"
	ClusterLogSweep    = "sweep"
	ClusterLogJoin     = "join"
	ClusterLogLost     = "lost"
)

// ClusterLogRecord is one entry of the coordinator's replicated log.
type ClusterLogRecord struct {
	Seq   int64  `json:"seq"`
	Epoch int64  `json:"epoch"`
	Type  string `json:"type"`
	// JobID/Req describe submissions; JobID alone cancels.
	JobID string      `json:"jobId,omitempty"`
	Req   *RunRequest `json:"req,omitempty"`
	// Row/Cached/Error carry a completion (Row nil on failure).
	Row    *harness.RunRow `json:"row,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Worker names the subject of join/lost records and the executor on
	// completions.
	Worker string `json:"worker,omitempty"`
	// SweepID/JobIDs describe sweep registrations.
	SweepID string   `json:"sweepId,omitempty"`
	JobIDs  []string `json:"jobIds,omitempty"`
}

// ClusterLogResponse is the GET /cluster/log body: records after the
// requested sequence number, plus the primary's epoch so a follower
// notices supersession.
type ClusterLogResponse struct {
	Epoch   int64              `json:"epoch"`
	Role    string             `json:"role"`
	NextSeq int64              `json:"nextSeq"`
	Records []ClusterLogRecord `json:"records,omitempty"`
}

// ClusterWorker snapshots one joined worker for /cluster/status.
type ClusterWorker struct {
	ID       string `json:"id"`
	Slots    int    `json:"slots"`
	Queued   int    `json:"queued"`
	Leased   int    `json:"leased"`
	Done     int64  `json:"done"`
	Stolen   int64  `json:"stolen"`
	LastSeen string `json:"lastSeen"`
}

// ClusterStatus is the GET /cluster/status body — the coordinator's
// membership and scheduling state for dashboards and smoke tests.
type ClusterStatus struct {
	Role    string          `json:"role"`
	Epoch   int64           `json:"epoch"`
	LogSeq  int64           `json:"logSeq"`
	Workers []ClusterWorker `json:"workers"`
	// Unassigned counts jobs waiting for any worker to join.
	Unassigned   int   `json:"unassigned"`
	Redispatches int64 `json:"redispatches"`
	// CacheHits counts jobs answered from the coordinator's own store
	// without dispatching.
	CacheHits int64 `json:"cacheHits"`
	// Duplicates counts idempotently discarded duplicate completions.
	Duplicates int64 `json:"duplicates"`
	// StandbySeq is the last replicated log sequence on the other side
	// of the replication link: on the primary, the highest sequence a
	// log follower has confirmed (a poll from seq N confirms everything
	// below N); on a standby, its own applied sequence.
	StandbySeq int64 `json:"standbySeq"`
	// ReplicationLag is the replication link's backlog in log records:
	// LogSeq - StandbySeq on the primary (0 with no follower yet and an
	// empty log), primary NextSeq-1 minus applied sequence on a
	// standby.  Exposed as the svmd_cluster_replication_lag gauge.
	ReplicationLag int64 `json:"replicationLag"`
}
