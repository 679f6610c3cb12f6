package server

import (
	"context"
	"errors"
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

// newExploreManager builds the front end's exploration manager: events
// on its SSE bus, admission gated like job submissions (draining, or an
// executor's refusal), svmd_explore_* registered on its registry.
func newExploreManager(s *Server, limit int) *explore.Manager {
	m := explore.NewManager(explore.ManagerConfig{
		Evaluator: serverEvaluator{s},
		Publish: func(eventType string, st *explore.Status) {
			s.bus.Publish(api.Event{Type: eventType, Explore: st})
		},
		Admit: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.admitLocked()
		},
		Limit:  limit,
		Logger: s.log,
	})
	explore.RegisterMetrics(s.met.reg, m)
	return m
}
