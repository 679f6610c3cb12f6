package explore

import (
	"context"
	"encoding/json"
	"sync"

	"swsm/internal/harness"
	"swsm/internal/store"
)

// Evaluation is one candidate's outcome.
type Evaluation struct {
	// Spec echoes the evaluated configuration.
	Spec harness.RunSpec
	// Row is the run's row (nil when Err is set).  Rows are plain —
	// no speedup resolution — exactly as the daemon persists them, so
	// every frontier point is resolvable from the store by Row.Key.
	Row *harness.RunRow
	// Cached reports that the result came from a cache (session memo or
	// persistent store) — such evaluations are not charged against the
	// budget.
	Cached bool
	// Err is a per-candidate failure (unrunnable geometry, etc.); the
	// search drops the candidate and continues.
	Err string
}

// Evaluator executes a batch of candidate configurations and returns
// one Evaluation per spec, index-aligned with the input.  A returned
// error aborts the whole exploration (context cancellation, transport
// loss); per-candidate failures belong in Evaluation.Err instead.
type Evaluator interface {
	Evaluate(ctx context.Context, specs []harness.RunSpec) ([]Evaluation, error)
}

// SessionEvaluator runs candidates through a local harness.Session,
// optionally backed by a persistent store: store hits skip simulation
// entirely, fresh rows are written back, and the Cached flag — the
// budget ledger's input — is probed before execution (store presence or
// completed session memo entry).
type SessionEvaluator struct {
	Ses *harness.Session
	// St, if non-nil, is the persistent content-addressed result store
	// shared with the daemon: the evaluator reads warm rows from it and
	// persists fresh ones, so a re-run of the same exploration after a
	// crash replays from the store with zero new simulations.
	St *store.Store
}

// Evaluate implements Evaluator.  Batch members run concurrently
// through the session pool (bounded by its parallelism); results are
// returned in spec order.
func (e SessionEvaluator) Evaluate(ctx context.Context, specs []harness.RunSpec) ([]Evaluation, error) {
	out := make([]Evaluation, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		out[i].Spec = spec
		key := spec.Key()
		if e.Ses.Cached(spec) {
			out[i].Cached = true
		} else if e.St != nil {
			if payload, ok := e.St.Get(key); ok {
				if row, ok := harness.DecodeRow(payload, spec); ok {
					out[i].Cached = true
					out[i].Row = row
					continue
				}
			}
		}
		wg.Add(1)
		go func(i int, spec harness.RunSpec) {
			defer wg.Done()
			res, err := e.Ses.RunCtx(ctx, spec)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			row := harness.NewRunRow(res)
			out[i].Row = &row
		}(i, spec)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.St != nil {
		for i := range out {
			if out[i].Row != nil && !out[i].Cached {
				if payload, err := json.Marshal(*out[i].Row); err == nil {
					// Store damage must not fail the search; a later run
					// just recomputes.
					_ = e.St.Put(out[i].Spec.Key(), payload)
				}
			}
		}
	}
	return out, nil
}
