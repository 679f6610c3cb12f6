package cluster

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// WorkerConfig parameterizes a worker agent.
type WorkerConfig struct {
	// ID is the worker's stable identity.  Ring placement hashes it, so
	// it must survive restarts for the worker's store shard to keep
	// receiving the same keys.
	ID string
	// Coordinators lists coordinator base URLs in preference order
	// (primary first, standby after); the agent rotates on failure or on
	// a standby answer, which is how it follows a failover.
	Coordinators []string
	// Server is the local daemon whose engine executes leased jobs.
	Server *server.Server
	// Poll is the lease-poll (and heartbeat) interval.
	Poll   time.Duration
	Logger *slog.Logger
}

// Worker is the agent that plugs a daemon into the cluster: it polls
// the coordinator for leases sized to the daemon's idle pool slots,
// executes each leased job through the daemon's normal admission path
// (so the worker's persistent store and memo pool warm exactly as for
// local traffic — they are the cluster's distributed cache tier), and
// reports terminal results until acknowledged.
type Worker struct {
	cfg     WorkerConfig
	clients []*client.Client

	mu    sync.Mutex
	cur   int // index of the coordinator currently believed primary
	epoch int64
	held  map[string]struct{}
}

// NewWorker builds a worker agent; Run starts it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: worker needs an ID")
	}
	if len(cfg.Coordinators) == 0 {
		return nil, errors.New("cluster: worker needs at least one coordinator URL")
	}
	if cfg.Server == nil {
		return nil, errors.New("cluster: worker needs a server")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	w := &Worker{cfg: cfg, held: make(map[string]struct{})}
	for _, u := range cfg.Coordinators {
		cl := client.New(u)
		cl.Retries = -1 // the agent's own loop is the retry policy
		w.clients = append(w.clients, cl)
	}
	return w, nil
}

// Run polls for leases until ctx is cancelled, then waits for in-
// flight executions to finish reporting.  The lease poll is the whole
// protocol: the first one registers the worker (so it is sent at once,
// not a tick later), each one is a heartbeat — a worker that stops
// calling is declared lost after the coordinator's heartbeat TTL and its
// jobs re-dispatched — and each one's Held list is the worker's leases.
// Polls are serial, which is what makes Held trustworthy.
func (w *Worker) Run(ctx context.Context) error {
	var inflight sync.WaitGroup
	w.pollOnce(ctx, &inflight)
	t := time.NewTicker(w.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			inflight.Wait()
			return ctx.Err()
		case <-t.C:
			w.pollOnce(ctx, &inflight)
		}
	}
}

// pollOnce sends one lease request sized to the daemon's idle capacity
// and spawns an executor per granted job.
func (w *Worker) pollOnce(ctx context.Context, inflight *sync.WaitGroup) {
	srv := w.cfg.Server
	held := w.heldIDs()
	// Leased-but-not-yet-simulating jobs occupy the daemon's queue, not
	// a pool slot; count whichever view is larger so local submissions
	// sharing the daemon are never starved by over-leasing.
	busy := len(held)
	if sif := srv.SimsInFlight(); sif > busy {
		busy = sif
	}
	max := srv.Parallelism() - busy
	if max < 0 {
		max = 0
	}
	resp, err := w.client().Lease(ctx, api.ClusterLeaseRequest{
		WorkerID: w.cfg.ID, Slots: srv.Parallelism(),
		Max: max, Held: held, Epoch: w.epochNow(),
	})
	if err != nil {
		if ctx.Err() == nil {
			w.rotate()
		}
		return
	}
	w.observeEpoch(resp.Epoch)
	if resp.Role != api.RolePrimary {
		w.rotate()
		return
	}
	for _, lj := range resp.Jobs {
		if !w.markHeld(lj.ID) {
			continue // re-granted while still executing (e.g. after a heartbeat lapse)
		}
		inflight.Add(1)
		go func(lj api.ClusterLeasedJob) {
			defer inflight.Done()
			w.execute(ctx, lj)
		}(lj)
	}
}

// execute runs one leased job on the local daemon and reports the
// result until some coordinator acknowledges it.
func (w *Worker) execute(ctx context.Context, lj api.ClusterLeasedJob) {
	defer w.unmarkHeld(lj.ID)
	var (
		row    *harness.RunRow
		cached bool
		errMsg string
	)
	for {
		r, hit, err := w.cfg.Server.Execute(ctx, lj.Req)
		if err == nil {
			row, cached = r, hit
			break
		}
		if ctx.Err() != nil {
			// Shutting down mid-execution: stop reporting; the job is
			// re-dispatched when this worker's heartbeat lapses, or at
			// once if it polls again under the same ID.
			return
		}
		if errors.Is(err, server.ErrQueueFull) {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return
			}
			continue
		}
		errMsg = err.Error()
		break
	}
	if w.cfg.Logger != nil {
		w.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "leased job executed",
			slog.String("job", lj.ID), slog.Bool("cached", cached),
			slog.Bool("stolen", lj.Stolen), slog.String("error", errMsg))
	}
	req := api.ClusterCompleteRequest{
		WorkerID: w.cfg.ID, JobID: lj.ID,
		Row: row, Cached: cached, Error: errMsg,
	}
	for {
		req.Epoch = w.epochNow()
		resp, err := w.client().Complete(ctx, req)
		if err == nil {
			w.observeEpoch(resp.Epoch)
			return
		}
		if ctx.Err() != nil {
			return
		}
		if client.StatusCode(err) == http.StatusNotFound {
			// No coordinator knows this job (log tail lost and the new
			// primary never saw the submit).  Nothing to report against;
			// the result is safe in the local store either way.
			return
		}
		// Standby answer or transport failure: try the next coordinator
		// after a short pause.  During a failover window every address
		// may refuse for a while; keep cycling until the promotion.
		w.rotate()
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}

func (w *Worker) client() *client.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clients[w.cur]
}

func (w *Worker) rotate() {
	w.mu.Lock()
	w.cur = (w.cur + 1) % len(w.clients)
	w.mu.Unlock()
}

func (w *Worker) epochNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

func (w *Worker) observeEpoch(e int64) {
	w.mu.Lock()
	if e > w.epoch {
		w.epoch = e
	}
	w.mu.Unlock()
}

func (w *Worker) heldIDs() []string {
	w.mu.Lock()
	ids := make([]string, 0, len(w.held))
	for id := range w.held {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	sort.Strings(ids)
	return ids
}

func (w *Worker) markHeld(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.held[id]; ok {
		return false
	}
	w.held[id] = struct{}{}
	return true
}

func (w *Worker) unmarkHeld(id string) {
	w.mu.Lock()
	delete(w.held, id)
	w.mu.Unlock()
}
