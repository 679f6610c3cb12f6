package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
)

// serverEvaluator executes exploration candidates through the daemon's
// own job scheduler, so auto-tuning traffic is ordinary traffic: each
// point is a detached job that coalesces with identical in-flight
// requests, competes for queue slots under the same backpressure, and
// resolves store-first exactly like a POST /runs.  A full queue parks
// the batch (bounded retry with the daemon's own Retry-After cadence)
// instead of overflowing it — the optimizer is the one client that must
// never amplify pressure on a busy daemon.
type serverEvaluator struct{ s *Server }

// submitRetryDelay paces re-submission attempts against a full queue.
const submitRetryDelay = 10 * time.Millisecond

func (e serverEvaluator) Evaluate(ctx context.Context, specs []harness.RunSpec) ([]explore.Evaluation, error) {
	out := make([]explore.Evaluation, len(specs))
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		out[i].Spec = spec
		// Probe caches before execution: the budget ledger charges only
		// evaluations that were warm nowhere.
		if e.s.ses.Cached(spec) || (e.s.st != nil && e.s.st.Has(spec.Key())) {
			out[i].Cached = true
		}
		for {
			j, _, err := e.s.submit(api.RunRequest{Spec: spec}, true)
			if err == nil {
				jobs[i] = j
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				return nil, err // draining or invalid — abort the search
			}
			select {
			case <-time.After(submitRetryDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	for i, j := range jobs {
		row, cached, err := e.s.await(ctx, j)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out[i].Row = row
		out[i].Cached = out[i].Cached || cached
		if err != nil {
			out[i].Err = err.Error()
		}
	}
	return out, nil
}

// exploreLimit bounds concurrently running searches.  Each search's
// point simulations still queue through the ordinary job scheduler;
// this only caps how many search drivers compete for it.
const exploreLimit = 2

// errExploreLimit rejects a search while exploreLimit others run (429).
var errExploreLimit = errors.New("explore: too many active explorations")

// exploration is one /explore search.  Explorations are born running —
// the driver starts at once; the limit bounds concurrency instead of
// queuing.  Mutable fields are guarded by the front end's lock; done is
// closed when the exploration reaches a terminal state.  rep is the
// search so far: the request echo from the start, counters and frontier
// from every batch, and the engine's own Report once it finishes.
type exploration struct {
	id     string
	req    explore.Request
	cancel context.CancelFunc
	done   chan struct{}

	state string
	err   error
	rep   explore.Report
	start time.Time
	wall  time.Duration
}

// startExplore validates req, admits it like a job submission and
// against exploreLimit, and starts its search driver.  It returns the
// exploration and its initial (running) status.
func (s *Server) startExplore(req explore.Request) (*exploration, *api.ExploreStatus, error) {
	req, err := req.WithDefaults()
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(); err != nil {
		return nil, nil, err
	}
	running := 0
	for _, x := range s.explorations {
		if x.state == api.StateRunning {
			running++
		}
	}
	if running >= exploreLimit {
		return nil, nil, errExploreLimit
	}
	ctx, cancel := context.WithCancel(context.Background())
	x := &exploration{
		id:     fmt.Sprintf("e%d", len(s.explorations)+1),
		req:    req,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  api.StateRunning,
		rep:    explore.Report{App: req.App, Scale: req.Scale, Seed: req.Seed, Budget: req.Budget},
		start:  time.Now(),
	}
	s.explorations = append(s.explorations, x)
	if s.log != nil {
		s.log.Info("explore started", "explore", x.id, "app", req.App,
			"scale", int(req.Scale), "seed", req.Seed, "budget", req.Budget)
	}
	st := exploreStatusLocked(x, nil)
	s.bus.Publish(api.Event{Type: api.EventExploreStarted, Explore: st})
	go s.drive(ctx, x)
	return x, st, nil
}

// drive runs one exploration to its terminal state.
func (s *Server) drive(ctx context.Context, x *exploration) {
	rep, err := explore.Run(ctx, x.req, serverEvaluator{s}, func(p explore.Progress) {
		s.mu.Lock()
		defer s.mu.Unlock()
		newPts := p.NewPoints
		p.NewPoints = nil
		x.rep.Progress = p
		x.rep.Frontier = append(x.rep.Frontier, newPts...)
		s.bus.Publish(api.Event{Type: api.EventExploreProgress, Explore: exploreStatusLocked(x, nil)})
		if len(newPts) > 0 {
			s.bus.Publish(api.Event{Type: api.EventExploreFrontier, Explore: exploreStatusLocked(x, newPts)})
		}
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	x.wall = time.Since(x.start)
	event := api.EventExploreDone
	switch {
	case err == nil:
		x.state, x.rep = api.StateDone, *rep
	case errors.Is(err, context.Canceled), ctx.Err() != nil:
		x.state, x.err = api.StateCanceled, err
		event = api.EventExploreCanceled
	default:
		x.state, x.err = api.StateFailed, err
		event = api.EventExploreFailed
	}
	st := exploreStatusLocked(x, nil)
	if s.log != nil {
		switch x.state {
		case api.StateDone:
			s.log.Info("explore done", "explore", x.id,
				"stopped", st.Stopped, "frontier", len(st.Frontier),
				"evaluated", st.Evaluated, "sims", st.SimsRun,
				"spentCycles", st.SpentCycles, "wallMs", st.WallMS)
		case api.StateCanceled:
			s.log.Info("explore canceled", "explore", x.id)
		default:
			s.log.Warn("explore failed", "explore", x.id, "err", err)
		}
	}
	s.bus.Publish(api.Event{Type: event, Explore: st})
	x.cancel()
	close(x.done)
}

// exploreStatusLocked snapshots x, with newPts as the progress's new
// frontier points.  Caller holds s.mu.
func exploreStatusLocked(x *exploration, newPts []explore.Point) *api.ExploreStatus {
	st := &api.ExploreStatus{ID: x.id, State: x.state, Report: x.rep}
	st.Frontier = append([]explore.Point{}, x.rep.Frontier...)
	st.NewPoints = newPts
	if x.err != nil {
		st.Error = x.err.Error()
	}
	if x.wall > 0 {
		st.WallMS = x.wall.Milliseconds()
	}
	return st
}

// explorationByID looks up the exploration a request names; on a miss
// it answers 404 itself.
func (s *Server) explorationByID(w http.ResponseWriter, r *http.Request) *exploration {
	id := r.PathValue("id")
	s.mu.Lock()
	for _, x := range s.explorations {
		if x.id == id {
			s.mu.Unlock()
			return x
		}
	}
	s.mu.Unlock()
	WriteError(w, http.StatusNotFound, "no exploration %q", id)
	return nil
}

// exploreStatus snapshots x, first waiting for it to end (or for the
// request to go away) when wait is set.
func (s *Server) exploreStatus(ctx context.Context, x *exploration, wait bool) *api.ExploreStatus {
	if wait {
		select {
		case <-x.done:
		case <-ctx.Done():
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return exploreStatusLocked(x, nil)
}

// handleSubmitExplore serves POST /explore: 202 with the running status,
// or with ?wait=1 the status once the search ends (200).
func (s *Server) handleSubmitExplore(w http.ResponseWriter, r *http.Request) {
	var req explore.Request
	if err := DecodeBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	x, st, err := s.startExplore(req)
	switch {
	case errors.Is(err, errExploreLimit):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		submitError(w, err)
		return
	}
	if WantWait(r) {
		st = s.exploreStatus(r.Context(), x, true)
	}
	code := http.StatusOK
	if st.State == api.StateRunning {
		code = http.StatusAccepted
	}
	WriteJSON(w, code, st)
}

// handleListExplore serves GET /explore, in submission order.
func (s *Server) handleListExplore(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*api.ExploreStatus, len(s.explorations))
	for i, x := range s.explorations {
		out[i] = exploreStatusLocked(x, nil)
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetExplore(w http.ResponseWriter, r *http.Request) {
	if x := s.explorationByID(w, r); x != nil {
		WriteJSON(w, http.StatusOK, s.exploreStatus(r.Context(), x, WantWait(r)))
	}
}

// handleCancelExplore serves DELETE /explore/{id}.  The driver sees the
// cancellation at its next batch boundary; point jobs already admitted
// run on and stay cached.  Cancelling an ended search changes nothing.
func (s *Server) handleCancelExplore(w http.ResponseWriter, r *http.Request) {
	if x := s.explorationByID(w, r); x != nil {
		x.cancel()
		WriteJSON(w, http.StatusOK, s.exploreStatus(r.Context(), x, false))
	}
}

// handleExploreFrontier serves GET /explore/{id}/frontier: the current
// Pareto frontier in the CSV shape svmbench -explore -csv writes.
func (s *Server) handleExploreFrontier(w http.ResponseWriter, r *http.Request) {
	if x := s.explorationByID(w, r); x != nil {
		st := s.exploreStatus(r.Context(), x, false)
		w.Header().Set("Content-Type", "text/csv")
		explore.FrontierTable(st.Frontier).WriteCSV(w)
	}
}
