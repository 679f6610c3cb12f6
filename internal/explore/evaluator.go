package explore

import (
	"context"

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

// Evaluate implements Evaluator.  Every spec that is not a store hit
// goes through the session's fan-out (bounded by its parallelism), so
// memo hits come back through the memo; results are returned in spec
// order.
func (e SessionEvaluator) Evaluate(ctx context.Context, specs []harness.RunSpec) ([]Evaluation, error) {
	out := make([]Evaluation, len(specs))
	var run []harness.RunSpec
	var at []int
	for i, spec := range specs {
		out[i].Spec = spec
		if e.Ses.Cached(spec) {
			out[i].Cached = true
		} else if row := harness.LoadRow(e.St, spec.Key(), spec); row != nil {
			out[i].Cached = true
			out[i].Row = row
			continue
		}
		run = append(run, spec)
		at = append(at, i)
	}
	results, errs := e.Ses.RunEach(ctx, run)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for j, i := range at {
		if errs[j] != nil {
			out[i].Err = errs[j].Error()
			continue
		}
		row := harness.NewRunRow(results[j])
		out[i].Row = &row
		if !out[i].Cached {
			harness.SaveRow(e.St, run[j].Key(), &row)
		}
	}
	return out, nil
}
