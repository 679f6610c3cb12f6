package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
)

// Scheduling and failure-detection defaults.  Heartbeats ride on the
// workers' lease polls, so the TTL only needs to cover a few poll
// intervals.  It is the only timer on a lease: a live worker's polls
// name what it holds, and anything they stop naming is re-dispatched.
const (
	DefaultHeartbeatTTL = 5 * time.Second
	DefaultQueueDepth   = 64
	DefaultPollWait     = time.Second
)

// Admission and completion errors the HTTP layer maps to status codes.
var (
	// ErrNotPrimary rejects writes on a standby (or fenced) coordinator.
	ErrNotPrimary = fmt.Errorf("cluster: not the primary coordinator: %w", server.ErrUnavailable)
	// errUnknownJob rejects a completion for a job this coordinator never
	// heard of (a log tail lost across failover).
	errUnknownJob = errors.New("cluster: unknown job")
	// errBadCompletion rejects a completion with neither a row nor an
	// error, or with a row for another spec; the job stays leased.
	errBadCompletion = errors.New("cluster: completion carries no row for the job's spec")
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// NodeID names this coordinator in logs and failover events.
	NodeID string
	// StoreDir is the coordinator's own persistent result store ("" =
	// none).  It is the top cache tier: a sweep resubmitted after a crash
	// is answered here without dispatching anything.
	StoreDir      string
	StoreMaxBytes int64
	// QueueDepth bounds each worker's dispatch queue; when a key's ring
	// home and every spillover successor are full, submissions are
	// rejected with 429.
	QueueDepth int
	// HeartbeatTTL is the silence after which a worker is declared lost
	// and its jobs re-dispatched.
	HeartbeatTTL time.Duration
	// FailoverAfter is how long a standby tolerates primary silence
	// before promoting itself (0 = 3x HeartbeatTTL).
	FailoverAfter time.Duration
	// PollWait bounds the /cluster/log long-poll hold.
	PollWait time.Duration
	// PeerURL, when set, starts this coordinator as a standby following
	// the primary at that URL.
	PeerURL string
	Logger  *slog.Logger
}

// task is the coordinator's scheduling record for one live job: where
// the ring placed it or who holds its lease.  The job itself — state,
// row, watchers, sweeps — lives in the front end.
type task struct {
	job          *server.Job
	worker       string // dispatch target or lease holder ("" = unassigned)
	redispatches int
}

// workerState is one registered worker.
type workerState struct {
	id       string
	slots    int
	lastSeen time.Time
	queue    []*task          // dispatch queue (queued jobs placed here)
	leased   map[string]*task // running jobs held under lease
	done     int64
	stolen   int64 // jobs stolen FROM this worker
}

// Coordinator is the cluster executor behind the daemon's job front end.
// It shards admitted jobs across workers by consistent hashing on the
// content key, leases them to the workers' agents, and replicates its
// decisions to a standby through a sequenced log so a crash mid-sweep
// fails over without losing or duplicating completed results.
type Coordinator struct {
	cfg CoordinatorConfig
	fe  *server.Server
	met *clusterMetrics
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Guarded by the front end's lock (fe.Lock).
	role       string
	epoch      int64
	ring       *Ring
	workers    map[string]*workerState
	tasks      map[string]*task // job ID -> live job's schedule
	unassigned []*task
	lastSeq    int64
	wal        []api.ClusterLogRecord
	walNotify  chan struct{}
	// Replication-lag bookkeeping.  On the primary, followerSeq is the
	// highest log sequence any follower has confirmed: a poll from seq N
	// acknowledges every record below N.  On a live standby, following
	// is true and primarySeq mirrors the primary's NextSeq-1 from the
	// last successful poll.
	followerSeq int64
	primarySeq  int64
	following   bool
}

// NewCoordinator builds a coordinator behind its own job front end and
// starts its janitor (and, on a standby, the follower loop).  Stop
// releases both.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.NodeID == "" {
		cfg.NodeID = "coordinator"
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 3 * cfg.HeartbeatTTL
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = DefaultPollWait
	}
	c := &Coordinator{
		cfg:       cfg,
		log:       cfg.Logger,
		role:      api.RolePrimary,
		epoch:     1,
		ring:      NewRing(0),
		workers:   make(map[string]*workerState),
		tasks:     make(map[string]*task),
		walNotify: make(chan struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	_, err := server.NewWith(server.Config{
		StoreDir: cfg.StoreDir, StoreMaxBytes: cfg.StoreMaxBytes,
		Logger: cfg.Logger,
	}, func(fe *server.Server) server.Executor {
		c.fe = fe
		c.met = newClusterMetrics(fe.Registry(), c)
		return c
	})
	if err != nil {
		return nil, err
	}
	if cfg.PeerURL != "" {
		c.role = api.RoleStandby
		c.epoch = 0
		c.following = true
		c.wg.Add(1)
		go c.follow()
	}
	c.wg.Add(1)
	go c.janitor()
	return c, nil
}

// Stop shuts the coordinator down through its front end's drain:
// explorations stop, background loops exit, the event bus closes.
// In-flight worker executions are not interrupted — their completions
// simply have nowhere to land (the failover peer, if any, accepts them).
// Drain fails only when already draining, so a second Stop is a no-op.
func (c *Coordinator) Stop() { _ = c.fe.Drain(context.Background()) }

// Role reports "primary" or "standby".
func (c *Coordinator) Role() string { return c.Status().Role }

// Epoch reports the current coordination epoch.
func (c *Coordinator) Epoch() int64 { return c.Status().Epoch }

// Admit implements server.Executor: only the primary takes new work.
func (c *Coordinator) Admit() error {
	if c.role != api.RolePrimary {
		return ErrNotPrimary
	}
	return nil
}

// Enqueue implements server.Executor: answer the job from the
// coordinator's own store, or place it on a worker queue chosen by the
// ring (429 when every eligible queue is full).  Either way the
// decision enters the replicated log.
func (c *Coordinator) Enqueue(j *server.Job) (string, *harness.RunRow, error) {
	req := j.Request()
	if hit := c.storeHit(j); hit != nil {
		c.appendLogLocked(api.ClusterLogRecord{Type: api.ClusterLogSubmit, JobID: j.ID(), Req: &req})
		c.appendLogLocked(api.ClusterLogRecord{
			Type: api.ClusterLogComplete, JobID: j.ID(),
			Row: hit, Cached: true, Worker: c.cfg.NodeID,
		})
		c.met.coordCacheHits.Inc()
		return c.cfg.NodeID, hit, nil
	}
	t := &task{job: j}
	if err := c.placeLocked(t, false); err != nil {
		return "", nil, err
	}
	c.tasks[j.ID()] = t
	c.appendLogLocked(api.ClusterLogRecord{Type: api.ClusterLogSubmit, JobID: j.ID(), Req: &req})
	c.updateGaugesLocked()
	return t.worker, nil, nil
}

// storeHit probes the coordinator's store for the job's row, under the
// front end's lock: a cheap existence check first (Has is a stat, Get
// reads, checksums and decodes), so only a likely hit pays the read.
func (c *Coordinator) storeHit(j *server.Job) *harness.RunRow {
	st := c.fe.Store()
	if st == nil || !st.Has(j.CoalesceKey()) {
		return nil
	}
	return harness.LoadRow(st, j.CoalesceKey(), j.Request().Spec)
}

// Cancel implements server.Executor.  A queued job leaves the schedule;
// a running one is dropped from its lease and its eventual completion
// discarded as a duplicate (the coordinator has no channel to interrupt
// a worker mid-simulation).  A standby cancels nothing.
func (c *Coordinator) Cancel(j *server.Job) bool {
	if c.role != api.RolePrimary {
		return false
	}
	if t := c.tasks[j.ID()]; t != nil {
		c.dequeueLocked(t)
		delete(c.tasks, j.ID())
	}
	c.appendLogLocked(api.ClusterLogRecord{Type: api.ClusterLogCancel, JobID: j.ID()})
	c.updateGaugesLocked()
	return true
}

// Sweep implements server.Executor: the sweep enters the replicated log.
func (c *Coordinator) Sweep(id string, jobs []*server.Job) {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID()
	}
	c.appendLogLocked(api.ClusterLogRecord{Type: api.ClusterLogSweep, SweepID: id, JobIDs: ids})
}

// Load implements server.Executor.
func (c *Coordinator) Load() server.Load {
	return server.Load{
		Capacity: c.cfg.QueueDepth * len(c.workers), Workers: len(c.workers),
		Role: c.role, Epoch: c.epoch,
	}
}

// Close implements server.Executor: the janitor and follower exit.
func (c *Coordinator) Close(context.Context) error {
	c.cancel()
	c.wg.Wait()
	return nil
}

// placeLocked assigns a queued job to a worker: the key's ring home
// first, then successors whose queues have room.  With force (re-
// dispatch paths, where dropping is not an option) or with no workers
// at all, the job parks on the unassigned list instead of erroring.
func (c *Coordinator) placeLocked(t *task, force bool) error {
	t.worker = ""
	for _, n := range c.ring.Successors(t.job.Key(), 0) {
		if w := c.workers[n]; w != nil && len(w.queue) < c.cfg.QueueDepth {
			t.worker = n
			w.queue = append(w.queue, t)
			break
		}
	}
	if t.worker == "" {
		if !force && (len(c.workers) > 0 || len(c.unassigned) >= 4*c.cfg.QueueDepth) {
			return server.ErrQueueFull
		}
		c.unassigned = append(c.unassigned, t)
	}
	c.fe.MoveLocked(t.job, api.StateQueued, t.worker)
	return nil
}

// lease is the whole worker protocol: register/refresh the worker,
// re-dispatch every lease it no longer reports holding, then hand out
// jobs — its own ring share FIFO, then (if it still has idle slots)
// jobs stolen from the tail of the most backlogged other worker.
func (c *Coordinator) lease(req api.ClusterLeaseRequest) api.ClusterLeaseResponse {
	now := time.Now()
	c.fe.Lock()
	defer c.fe.Unlock()
	if req.Epoch > c.epoch {
		c.stepDownLocked(req.Epoch, "lease from "+req.WorkerID)
	}
	if c.role != api.RolePrimary {
		return api.ClusterLeaseResponse{Epoch: c.epoch, Role: c.role}
	}
	w := c.ensureWorkerLocked(req.WorkerID, req.Slots, now)
	w.lastSeen = now
	if req.Slots > 0 {
		w.slots = req.Slots
	}
	c.dropUnheldLocked(w, req.Held)
	var out []api.ClusterLeasedJob
	for len(out) < req.Max && len(w.queue) > 0 {
		t := w.queue[0]
		w.queue = w.queue[1:]
		out = append(out, c.leaseJobLocked(t, w, false))
	}
	for len(out) < req.Max {
		v := c.stealVictimLocked(w.id)
		if v == nil {
			break
		}
		t := v.queue[len(v.queue)-1]
		v.queue = v.queue[:len(v.queue)-1]
		v.stolen++
		c.met.stolen.With(w.id).Inc()
		if c.log != nil {
			c.log.LogAttrs(c.ctx, slog.LevelInfo, "job stolen",
				slog.String("job", t.job.ID()), slog.String("from", v.id), slog.String("by", w.id))
		}
		out = append(out, c.leaseJobLocked(t, w, true))
	}
	c.updateGaugesLocked()
	return api.ClusterLeaseResponse{Epoch: c.epoch, Role: c.role, Jobs: out}
}

// dropUnheldLocked re-dispatches, in admission order, every job leased
// to w that its poll does not name in held: the worker restarted, or
// never received the grant (see api.ClusterLeaseRequest.Held).
func (c *Coordinator) dropUnheldLocked(w *workerState, held []string) {
	if len(w.leased) == 0 {
		return
	}
	names := make(map[string]bool, len(held))
	for _, id := range held {
		names[id] = true
	}
	var lost []*task
	for id, t := range w.leased {
		if !names[id] {
			lost = append(lost, t)
		}
	}
	sortByID(lost)
	for _, t := range lost {
		c.redispatchLocked(t, "not held by "+w.id)
	}
}

func (c *Coordinator) leaseJobLocked(t *task, w *workerState, stolen bool) api.ClusterLeasedJob {
	t.worker = w.id
	w.leased[t.job.ID()] = t
	c.fe.MoveLocked(t.job, api.StateRunning, w.id)
	return api.ClusterLeasedJob{ID: t.job.ID(), Req: t.job.Request(), Stolen: stolen}
}

// stealVictimLocked picks the most backlogged other worker worth
// robbing: it must have queued work it is in no position to start soon
// (all slots busy, or a queue of 2+).  An idle worker with one queued
// job keeps it — it will lease it on its next poll, and moving it would
// only cost cache locality.
func (c *Coordinator) stealVictimLocked(thief string) *workerState {
	var best *workerState
	for _, id := range c.workerIDsLocked() {
		v := c.workers[id]
		if id == thief || len(v.queue) == 0 {
			continue
		}
		if len(v.leased) < v.slots && len(v.queue) < 2 {
			continue
		}
		if best == nil || len(v.queue) > len(best.queue) {
			best = v
		}
	}
	return best
}

func (c *Coordinator) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ensureWorkerLocked registers a worker on its first lease poll (after a
// failover the new primary learns its membership this way)
// and drains any unassigned backlog onto the grown ring.
func (c *Coordinator) ensureWorkerLocked(id string, slots int, now time.Time) *workerState {
	if w, ok := c.workers[id]; ok {
		return w
	}
	if slots <= 0 {
		slots = 1
	}
	w := &workerState{id: id, slots: slots, lastSeen: now, leased: make(map[string]*task)}
	c.workers[id] = w
	c.ring.Add(id)
	c.appendLogLocked(api.ClusterLogRecord{Type: api.ClusterLogJoin, Worker: id})
	c.fe.Publish(api.Event{Type: "workerJoined", Worker: id})
	if c.log != nil {
		c.log.LogAttrs(c.ctx, slog.LevelInfo, "worker joined",
			slog.String("worker", id), slog.Int("slots", slots))
	}
	// Membership changed: re-place every queued job so placement stays
	// the pure ring function of (members, key) — anything parked on a
	// successor (or unassigned) moves home if the new worker owns it.
	c.rebalanceLocked()
	return w
}

// rebalanceLocked re-derives every queued job's placement from the
// current ring.  Running jobs are left alone — their lease, not the
// ring, owns them now.
func (c *Coordinator) rebalanceLocked() {
	queued := c.unassigned
	c.unassigned = nil
	for _, w := range c.workers {
		queued = append(queued, w.queue...)
		w.queue = w.queue[:0]
	}
	sortByID(queued)
	for _, t := range queued {
		c.placeLocked(t, true)
	}
}

// sortByID orders tasks by admission: job IDs are "j<seq>".
func sortByID(ts []*task) {
	sort.Slice(ts, func(i, k int) bool {
		a, b := ts[i].job.ID(), ts[k].job.ID()
		return len(a) < len(b) || len(a) == len(b) && a < b
	})
}

// loseWorkerLocked removes a dead worker and re-dispatches everything
// it held.  Ring determinism works for us here: a re-dispatched job
// lands on the dead worker's ring successor, and if the job actually
// completed before the death was detected, the duplicate completion is
// discarded idempotently — the store row and the recomputed row are
// byte-identical by simulator determinism anyway.
func (c *Coordinator) loseWorkerLocked(w *workerState) {
	delete(c.workers, w.id)
	c.ring.Remove(w.id)
	c.met.queueDepth.With(w.id).Set(0)
	c.met.leased.With(w.id).Set(0)
	c.appendLogLocked(api.ClusterLogRecord{Type: api.ClusterLogLost, Worker: w.id})
	c.fe.Publish(api.Event{Type: "workerLost", Worker: w.id})
	if c.log != nil {
		c.log.LogAttrs(c.ctx, slog.LevelWarn, "worker lost",
			slog.String("worker", w.id),
			slog.Int("queued", len(w.queue)), slog.Int("leased", len(w.leased)))
	}
	for _, t := range w.queue {
		c.placeLocked(t, true)
	}
	w.queue = nil
	for _, t := range w.leased {
		c.redispatchLocked(t, "worker "+w.id+" lost")
	}
	w.leased = make(map[string]*task)
}

// redispatchLocked returns a running job to the queued state and places
// it again.
func (c *Coordinator) redispatchLocked(t *task, reason string) {
	c.dequeueLocked(t)
	t.redispatches++
	c.met.redispatches.Inc()
	if c.log != nil {
		c.log.LogAttrs(c.ctx, slog.LevelWarn, "job re-dispatched",
			slog.String("job", t.job.ID()), slog.String("reason", reason))
	}
	c.placeLocked(t, true)
}

// dequeueLocked detaches a job from whatever scheduling structure
// currently holds it (owner queue, owner lease table, or unassigned).
func (c *Coordinator) dequeueLocked(t *task) {
	remove := func(q []*task) []*task {
		for i, x := range q {
			if x == t {
				return append(q[:i], q[i+1:]...)
			}
		}
		return q
	}
	if w := c.workers[t.worker]; w != nil {
		w.queue = remove(w.queue)
		delete(w.leased, t.job.ID())
	} else {
		c.unassigned = remove(c.unassigned)
	}
}

// complete lands one worker-reported result through the front end's
// finish path.  Idempotent: a job already terminal acknowledges as a
// duplicate and changes nothing.  A completion without a row for the
// job's spec (and without an error) is rejected and the job stays
// leased.
func (c *Coordinator) complete(req api.ClusterCompleteRequest) (api.ClusterCompleteResponse, error) {
	c.fe.Lock()
	if req.Epoch > c.epoch {
		c.stepDownLocked(req.Epoch, "completion from "+req.WorkerID)
	}
	resp := api.ClusterCompleteResponse{Epoch: c.epoch}
	t, err := c.completeLocked(req)
	c.fe.Unlock()
	if err != nil || t == nil {
		resp.Duplicate = err == nil
		return resp, err
	}
	// Write-back outside the lock; store damage must not fail the ack.
	if req.Error == "" {
		harness.SaveRow(c.fe.Store(), t.job.CoalesceKey(), req.Row)
	}
	return resp, nil
}

// completeLocked finishes the job a completion reports (nil task: a
// duplicate).
func (c *Coordinator) completeLocked(req api.ClusterCompleteRequest) (*task, error) {
	if c.role != api.RolePrimary {
		return nil, ErrNotPrimary
	}
	w := c.workers[req.WorkerID]
	if w != nil {
		w.lastSeen = time.Now()
	}
	t := c.tasks[req.JobID]
	if t == nil {
		if c.fe.JobLocked(req.JobID) == nil {
			return nil, errUnknownJob
		}
		c.met.duplicates.Inc()
		return nil, nil
	}
	if req.Error == "" && (req.Row == nil || req.Row.Spec != t.job.Request().Spec) {
		return nil, errBadCompletion
	}
	c.dequeueLocked(t)
	delete(c.tasks, req.JobID)
	if req.Cached {
		c.met.workerCacheHits.Inc()
	}
	c.met.workerDone.With(req.WorkerID).Inc()
	if w != nil {
		w.done++
	}
	c.appendLogLocked(api.ClusterLogRecord{
		Type: api.ClusterLogComplete, JobID: req.JobID,
		Row: req.Row, Cached: req.Cached, Error: req.Error, Worker: req.WorkerID,
	})
	c.fe.FinishLocked(t.job, req.WorkerID, req.Row, req.Cached, errOf(req.Error))
	if c.log != nil {
		c.log.LogAttrs(c.ctx, slog.LevelInfo, "job completed",
			slog.String("job", req.JobID), slog.String("worker", req.WorkerID),
			slog.Bool("cached", req.Cached), slog.String("error", req.Error))
	}
	c.updateGaugesLocked()
	return t, nil
}

// errOf turns a wire error message back into a job error (nil for "").
func errOf(msg string) error {
	if msg == "" {
		return nil
	}
	return errors.New(msg)
}

// janitor is the failure detector: it declares workers lost after
// heartbeat silence and drains the unassigned backlog when capacity
// appears.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	tick := c.cfg.HeartbeatTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.janitorOnce()
		}
	}
}

func (c *Coordinator) janitorOnce() {
	now := time.Now()
	c.fe.Lock()
	defer c.fe.Unlock()
	if c.role != api.RolePrimary {
		return
	}
	for _, id := range c.workerIDsLocked() {
		if w := c.workers[id]; now.Sub(w.lastSeen) > c.cfg.HeartbeatTTL {
			c.loseWorkerLocked(w)
		}
	}
	if len(c.workers) > 0 {
		pending := c.unassigned
		c.unassigned = nil
		for _, t := range pending {
			c.placeLocked(t, true)
		}
	}
	c.updateGaugesLocked()
}

// appendLogLocked sequences a record into the replicated log and wakes
// long-polling followers.  The log is in-memory and unbounded — see
// DESIGN.md for the tradeoff (a sweep's worth of records is small, and
// a restarted coordinator re-derives state from its store instead).
func (c *Coordinator) appendLogLocked(rec api.ClusterLogRecord) {
	c.lastSeq++
	rec.Seq = c.lastSeq
	rec.Epoch = c.epoch
	c.wal = append(c.wal, rec)
	close(c.walNotify)
	c.walNotify = make(chan struct{})
}

// waitLog serves the follower's log tail, long-polling up to PollWait
// when wait is set and no records past from exist yet.
func (c *Coordinator) waitLog(ctx context.Context, from int64, wait bool) api.ClusterLogResponse {
	if from < 1 {
		from = 1
	}
	deadline := time.Now().Add(c.cfg.PollWait)
	for {
		c.fe.Lock()
		// A poll from seq N is the follower's acknowledgement of every
		// record below N — the primary side of the replication-lag
		// measurement.
		if fs := from - 1; fs > c.followerSeq {
			c.followerSeq = fs
		}
		var recs []api.ClusterLogRecord
		if idx := int(from - 1); idx < len(c.wal) {
			recs = append([]api.ClusterLogRecord(nil), c.wal[idx:]...)
		}
		resp := api.ClusterLogResponse{
			Epoch: c.epoch, Role: c.role, NextSeq: c.lastSeq + 1, Records: recs,
		}
		notify := c.walNotify
		c.fe.Unlock()
		if len(recs) > 0 || !wait {
			return resp
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return resp
		}
		select {
		case <-notify:
		case <-time.After(remain):
			return resp
		case <-ctx.Done():
			return resp
		}
	}
}

// stepDownLocked fences this coordinator: a message carried a higher
// epoch, so a peer has been promoted and this node's writes must stop.
// It does not auto-rejoin as a follower — the operator restarts it as a
// standby of the new primary (single-failover assumption, DESIGN.md).
func (c *Coordinator) stepDownLocked(newEpoch int64, why string) {
	if c.role == api.RolePrimary {
		c.role = api.RoleStandby
		c.fe.Publish(api.Event{Type: "fenced", Worker: c.cfg.NodeID})
		if c.log != nil {
			c.log.LogAttrs(c.ctx, slog.LevelWarn, "fenced: stepping down",
				slog.Int64("seenEpoch", newEpoch), slog.String("via", why))
		}
	}
	if newEpoch > c.epoch {
		c.epoch = newEpoch
	}
}

// Status snapshots membership and scheduling state.
func (c *Coordinator) Status() api.ClusterStatus {
	c.fe.Lock()
	defer c.fe.Unlock()
	ws := make([]api.ClusterWorker, 0, len(c.workers))
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		ws = append(ws, api.ClusterWorker{
			ID: w.id, Slots: w.slots,
			Queued: len(w.queue), Leased: len(w.leased),
			Done: w.done, Stolen: w.stolen,
			LastSeen: w.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	standbySeq := c.followerSeq
	if c.following {
		standbySeq = c.lastSeq
	}
	return api.ClusterStatus{
		Role: c.role, Epoch: c.epoch, LogSeq: c.lastSeq,
		Workers: ws, Unassigned: len(c.unassigned),
		Redispatches:   c.met.redispatches.Value(),
		CacheHits:      c.met.coordCacheHits.Value(),
		Duplicates:     c.met.duplicates.Value(),
		StandbySeq:     standbySeq,
		ReplicationLag: c.replicationLagLocked(),
	}
}

// replicationLagLocked measures the replication link's backlog in log
// records.  On the primary it is how far the best follower trails the
// log head; on a live standby, how far this node trails the primary's
// head as of the last poll.
func (c *Coordinator) replicationLagLocked() int64 {
	var lag int64
	if c.following {
		lag = c.primarySeq - c.lastSeq
	} else {
		lag = c.lastSeq - c.followerSeq
	}
	if lag < 0 {
		return 0
	}
	return lag
}

// updateGaugesLocked refreshes the per-worker gauges from scheduler
// state.  Called at the end of every mutating entry point: the series
// of a joining worker are registered here, not at scrape time.
func (c *Coordinator) updateGaugesLocked() {
	for id, w := range c.workers {
		c.met.queueDepth.With(id).Set(float64(len(w.queue)))
		c.met.leased.With(id).Set(float64(len(w.leased)))
	}
}
