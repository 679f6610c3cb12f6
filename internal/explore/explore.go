// Package explore is the closed-loop auto-tuner above the experiment
// harness: given an application and a simulation budget, it searches
// the configuration space (protocol, coherence granularity, processor
// count, layer/comm parameter sets, optional fault rates) for the
// Pareto frontier of speedup vs. simulated cost — the shoal-style
// auto-tuning interface built on ingredients that sketch lacked: the
// memoized parallel pool, the persistent content-addressed store, and
// the daemon/cluster execution tiers.
//
// The search core is seeded and deterministic end to end: a
// Latin-hypercube seed set drawn from a splitmix64 stream, successive
// halving that refines around the surviving top half's grid neighbors,
// then coordinate descent around the incumbent best until a fixed
// point.  Candidates are evaluated in proposal order through an
// Evaluator in batches of Width, so the same (seed, budget, space)
// replays the same trajectory whether points run serially, 8-wide, or
// out of a warm store.
//
// Cost accounting is deliberately two-ledgered:
//
//   - CostCycles — the frontier's cost axis — charges every evaluation
//     its simulated price (cycles x procs), cached or not.  It measures
//     how much simulated work the search *asked for*, so the frontier
//     is byte-identical between cold and warm runs.
//   - SpentCycles — the budget's ledger — charges only evaluations that
//     were not already cached (session memo or persistent store).  Warm
//     re-exploration is therefore nearly free, and a crash-safe resume
//     is simply re-submitting the same request: the replayed prefix
//     costs no new simulations.
package explore

import (
	"context"
	"fmt"
	"sort"

	"swsm/internal/apps"
	"swsm/internal/harness"
)

// Request describes one exploration.
type Request struct {
	// App is the application to tune (any registered app name).
	App string `json:"app"`
	// Scale is the problem scale (0 = tiny, 1 = base, 2 = large).
	Scale apps.Scale `json:"scale"`
	// Budget bounds the simulated cycles spent on *fresh* simulations
	// (cycles x procs per cache-miss evaluation); 0 means run the
	// search to convergence.  The budget is checked between batches, so
	// a batch in flight always completes.
	Budget int64 `json:"budget,omitempty"`
	// Seed seeds the deterministic search (Latin-hypercube draw).
	Seed uint64 `json:"seed"`
	// SeedPoints is the Latin-hypercube seed-set size (default 16,
	// capped at the space size).
	SeedPoints int `json:"seedPoints,omitempty"`
	// Width is the evaluation batch width — how many candidates each
	// Evaluator call receives (default 8).
	Width int `json:"width,omitempty"`
	// Space restricts the searched configuration grid; empty dimensions
	// take the defaults documented on Space.
	Space Space `json:"space,omitempty"`
}

// WithDefaults returns the request with defaults applied and validated.
func (r Request) WithDefaults() (Request, error) {
	if _, err := apps.Lookup(r.App); err != nil {
		return r, fmt.Errorf("explore: %v", err)
	}
	if r.Scale < apps.Tiny || r.Scale > apps.Large {
		return r, fmt.Errorf("explore: scale %d out of range", r.Scale)
	}
	if r.Budget < 0 {
		return r, fmt.Errorf("explore: negative budget %d", r.Budget)
	}
	r.Space = r.Space.withDefaults()
	if err := r.Space.validate(); err != nil {
		return r, err
	}
	if r.SeedPoints == 0 {
		r.SeedPoints = 16
	}
	if r.SeedPoints < 1 || r.SeedPoints > 4096 {
		return r, fmt.Errorf("explore: seedPoints %d out of range [1,4096]", r.SeedPoints)
	}
	if n := r.Space.size(); r.SeedPoints > n {
		r.SeedPoints = n
	}
	if r.Width == 0 {
		r.Width = 8
	}
	if r.Width < 1 || r.Width > 256 {
		return r, fmt.Errorf("explore: width %d out of range [1,256]", r.Width)
	}
	return r, nil
}

// Point is one frontier entry: the configuration that held the best
// speedup seen so far at the moment the search had spent CostCycles.
// Successive points strictly increase in both speedup and cost, so the
// frontier is the search's anytime curve — "the best configuration
// found per simulated cycles invested" — and no evaluated configuration
// dominates any point (equal-or-better speedup at lower cost is
// impossible by construction: every earlier evaluation had lower
// speedup, every later one higher cost).
type Point struct {
	// Key is the row's content key (RunSpec.Key): the point's full row
	// is resolvable from the persistent store by this key.
	Key string `json:"key"`
	// Label is the point's short human-readable configuration name.
	Label string `json:"label"`
	// Spec is the full configuration.
	Spec harness.RunSpec `json:"spec"`
	// Cycles is the configuration's simulated execution time.
	Cycles int64 `json:"cycles"`
	// Speedup is sequential-baseline cycles / Cycles.
	Speedup float64 `json:"speedup"`
	// CostCycles is the cumulative simulated cost (cycles x procs,
	// cached evaluations included) the search had charged when this
	// point was found.
	CostCycles int64 `json:"costCycles"`
	// Eval is the 1-based evaluation index at which the point was found
	// (the baseline is evaluation 1).
	Eval int `json:"eval"`
}

// Progress is a per-batch snapshot of a running exploration.
type Progress struct {
	// Phase is the search phase that produced the batch: "baseline",
	// "seed", "halving" or "descent".
	Phase string `json:"phase"`
	// Batches counts evaluator calls so far.
	Batches int `json:"batches"`
	// Evaluated counts evaluations so far (baseline included).
	Evaluated int `json:"evaluated"`
	// SimsRun counts evaluations that were fresh simulations (not
	// served by the session memo or the persistent store).
	SimsRun int `json:"simsRun"`
	// CachedHits counts evaluations served from a cache.
	CachedHits int `json:"cachedHits"`
	// Errors counts evaluations that failed (unrunnable geometry etc.);
	// failed points are dropped from the ranking and charge nothing.
	Errors int `json:"errors"`
	// CostCycles is the cumulative simulated cost charged (all
	// evaluations).
	CostCycles int64 `json:"costCycles"`
	// SpentCycles is the budget ledger (fresh simulations only).
	SpentCycles int64 `json:"spentCycles"`
	// Budget echoes the request's budget (0 = unbounded).
	Budget int64 `json:"budget"`
	// BestSpeedup is the best speedup found so far (0 until a point
	// lands).
	BestSpeedup float64 `json:"bestSpeedup"`
	// FrontierSize is the number of frontier points so far.
	FrontierSize int `json:"frontierSize"`
	// NewPoints carries the frontier points this batch added, if any
	// (only populated on frontier-update events).
	NewPoints []Point `json:"newPoints,omitempty"`
}

// Report is a finished exploration.  It contains no wall-clock data:
// two runs with the same request (and any store temperature) marshal to
// identical bytes.
type Report struct {
	App    string     `json:"app"`
	Scale  apps.Scale `json:"scale"`
	Seed   uint64     `json:"seed"`
	Budget int64      `json:"budget"`
	// SeqCycles is the sequential-baseline cycle count every speedup
	// divides by.
	SeqCycles int64 `json:"seqCycles"`
	// Frontier is the Pareto frontier of speedup vs. cumulative
	// simulated cost, in discovery (= cost) order; the last point is
	// the best configuration found.
	Frontier []Point `json:"frontier"`
	// Stopped is why the search ended: "converged" (coordinate descent
	// reached a fixed point or the space was exhausted) or "budget".
	Stopped     string `json:"stopped"`
	Batches     int    `json:"batches"`
	Evaluated   int    `json:"evaluated"`
	SimsRun     int    `json:"simsRun"`
	CachedHits  int    `json:"cachedHits"`
	Errors      int    `json:"errors"`
	CostCycles  int64  `json:"costCycles"`
	SpentCycles int64  `json:"spentCycles"`
}

// Best returns the frontier's best point, or nil if nothing succeeded.
func (r *Report) Best() *Point {
	if len(r.Frontier) == 0 {
		return nil
	}
	return &r.Frontier[len(r.Frontier)-1]
}

// rng is the splitmix64 stream seeding the search (same generator the
// fault layer uses): state advances by the golden-ratio gamma, outputs
// are the finalized mix.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle is a seeded Fisher-Yates over xs.
func (r *rng) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// candidate is one proposed point.
type candidate struct {
	vec      vec
	spec     harness.RunSpec
	label    string
	baseline bool
}

// scored is one successfully evaluated candidate.
type scored struct {
	cand    candidate
	key     string
	cycles  int64
	speedup float64
}

type engine struct {
	req        Request
	ev         Evaluator
	onProgress func(Progress)
	rng        rng
	dims       [numDims]int

	seen     map[vec]bool
	scored   []*scored
	frontier []Point
	seq      int64

	evaluated, sims, cachedHits, errs, batches int
	cost, spent                                int64
	stopped                                    string
}

// Run executes the exploration described by req through ev, invoking
// onProgress (if non-nil) after every evaluated batch.  The returned
// error is non-nil only for request/evaluator/context failures;
// individual unrunnable points are counted in Report.Errors instead.
func Run(ctx context.Context, req Request, ev Evaluator, onProgress func(Progress)) (*Report, error) {
	req, err := req.WithDefaults()
	if err != nil {
		return nil, err
	}
	e := &engine{
		req:        req,
		ev:         ev,
		onProgress: onProgress,
		// Decorrelate the stream from small consecutive seeds the way
		// splitmix itself would: jump the state by seed gammas.
		rng:  rng{state: req.Seed * 0x9e3779b97f4a7c15},
		dims: req.Space.dims(),
		seen: make(map[vec]bool),
	}

	// Phase 0: the sequential baseline — every speedup's denominator,
	// charged like any other evaluation (it is simulated work the search
	// needs).  harness.BaselineSpec keeps the memo/store key shared with
	// every other sweep front-end.
	base := candidate{
		spec:     harness.BaselineSpec(req.App, req.Scale, true),
		label:    "baseline",
		baseline: true,
	}
	if err := e.evaluateWave(ctx, []candidate{base}, "baseline"); err != nil {
		return nil, err
	}
	if e.seq <= 0 {
		return nil, fmt.Errorf("explore: sequential baseline for %s failed", req.App)
	}

	// Phase 1: Latin-hypercube seed set.
	if err := e.evaluateWave(ctx, e.lhsSeeds(), "seed"); err != nil {
		return nil, err
	}

	// Phase 2: successive halving — keep the top half of everything
	// scored, propose the unvisited grid neighbors of the survivors,
	// halve, repeat.
	for k := e.req.SeedPoints / 2; k >= 1 && e.stopped == ""; k /= 2 {
		survivors := e.topK(k)
		if len(survivors) == 0 {
			break
		}
		props := e.neighbors(survivors)
		if len(props) == 0 {
			continue
		}
		if err := e.evaluateWave(ctx, props, "halving"); err != nil {
			return nil, err
		}
	}

	// Phase 3: coordinate descent around the incumbent best — evaluate
	// every unvisited single-dimension variant of the best point; if the
	// best moved, repeat around the new incumbent, else a fixed point is
	// reached.  The space is finite and the incumbent's speedup strictly
	// improves between rounds, so this terminates.
	for e.stopped == "" {
		best := e.topK(1)
		if len(best) == 0 {
			break
		}
		props := e.axisSweep(best[0].cand.vec)
		if len(props) == 0 {
			break
		}
		if err := e.evaluateWave(ctx, props, "descent"); err != nil {
			return nil, err
		}
		if e.stopped != "" {
			break
		}
		if nb := e.topK(1); len(nb) > 0 && nb[0] == best[0] {
			break
		}
	}
	if e.stopped == "" {
		e.stopped = "converged"
	}

	return &Report{
		App:         req.App,
		Scale:       req.Scale,
		Seed:        req.Seed,
		Budget:      req.Budget,
		SeqCycles:   e.seq,
		Frontier:    append([]Point{}, e.frontier...),
		Stopped:     e.stopped,
		Batches:     e.batches,
		Evaluated:   e.evaluated,
		SimsRun:     e.sims,
		CachedHits:  e.cachedHits,
		Errors:      e.errs,
		CostCycles:  e.cost,
		SpentCycles: e.spent,
	}, nil
}

// evaluateWave runs cands through the evaluator in batches of Width,
// updating accounting and the frontier after each batch.  It stops
// early (without error) once the budget is exhausted.
func (e *engine) evaluateWave(ctx context.Context, cands []candidate, phase string) error {
	for start := 0; start < len(cands); start += e.req.Width {
		if e.stopped != "" {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+e.req.Width, len(cands))
		chunk := cands[start:end]
		specs := make([]harness.RunSpec, len(chunk))
		for i, c := range chunk {
			specs[i] = c.spec
		}
		evals, err := e.ev.Evaluate(ctx, specs)
		if err != nil {
			return err
		}
		if len(evals) != len(chunk) {
			return fmt.Errorf("explore: evaluator returned %d results for %d specs", len(evals), len(chunk))
		}
		var newPts []Point
		for i, ev := range evals {
			e.evaluated++
			c := chunk[i]
			if ev.Err != "" || ev.Row == nil {
				e.errs++
				continue
			}
			e.cost += ev.Row.Cycles * int64(c.spec.Procs)
			if ev.Cached {
				e.cachedHits++
			} else {
				e.spent += ev.Row.Cycles * int64(c.spec.Procs)
				e.sims++
			}
			if c.baseline {
				e.seq = ev.Row.Cycles
				continue
			}
			sp := float64(e.seq) / float64(ev.Row.Cycles)
			e.scored = append(e.scored, &scored{cand: c, key: ev.Row.Key, cycles: ev.Row.Cycles, speedup: sp})
			if sp > e.bestSpeedup() {
				pt := Point{
					Key: ev.Row.Key, Label: c.label, Spec: c.spec,
					Cycles: ev.Row.Cycles, Speedup: sp,
					CostCycles: e.cost, Eval: e.evaluated,
				}
				e.frontier = append(e.frontier, pt)
				newPts = append(newPts, pt)
			}
		}
		e.batches++
		if e.req.Budget > 0 && e.spent >= e.req.Budget {
			e.stopped = "budget"
		}
		e.progress(phase, newPts)
	}
	return nil
}

func (e *engine) bestSpeedup() float64 {
	if len(e.frontier) == 0 {
		return 0
	}
	return e.frontier[len(e.frontier)-1].Speedup
}

func (e *engine) progress(phase string, newPts []Point) {
	if e.onProgress == nil {
		return
	}
	e.onProgress(Progress{
		Phase:        phase,
		Batches:      e.batches,
		Evaluated:    e.evaluated,
		SimsRun:      e.sims,
		CachedHits:   e.cachedHits,
		Errors:       e.errs,
		CostCycles:   e.cost,
		SpentCycles:  e.spent,
		Budget:       e.req.Budget,
		BestSpeedup:  e.bestSpeedup(),
		FrontierSize: len(e.frontier),
		NewPoints:    newPts,
	})
}

// propose canonicalizes v and appends it to props unless already
// visited.  Marking at proposal time dedupes within a wave too.
func (e *engine) propose(v vec, props *[]candidate) {
	v = e.req.Space.canon(v)
	if e.seen[v] {
		return
	}
	e.seen[v] = true
	*props = append(*props, candidate{
		vec:   v,
		spec:  e.req.Space.spec(e.req.App, e.req.Scale, v),
		label: e.req.Space.label(v),
	})
}

// lhsSeeds draws the Latin-hypercube seed set: each dimension's value
// list is tiled to SeedPoints entries and independently shuffled, and
// sample i takes column i of every dimension — so every value of every
// dimension appears as evenly as the sample count allows.
func (e *engine) lhsSeeds() []candidate {
	n := e.req.SeedPoints
	var cols [numDims][]int
	for d := 0; d < numDims; d++ {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i % e.dims[d]
		}
		e.rng.shuffle(vals)
		cols[d] = vals
	}
	var props []candidate
	for i := 0; i < n; i++ {
		var v vec
		for d := 0; d < numDims; d++ {
			v[d] = cols[d][i]
		}
		e.propose(v, &props)
	}
	return props
}

// topK ranks all scored candidates by speedup (ties broken by content
// key for determinism) and returns the best k.
func (e *engine) topK(k int) []*scored {
	ranked := append([]*scored{}, e.scored...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].speedup != ranked[j].speedup {
			return ranked[i].speedup > ranked[j].speedup
		}
		return ranked[i].key < ranked[j].key
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// neighbors proposes the unvisited +-1 grid neighbors of each survivor,
// in survivor-rank then dimension order.
func (e *engine) neighbors(survivors []*scored) []candidate {
	var props []candidate
	for _, s := range survivors {
		for d := 0; d < numDims; d++ {
			for _, delta := range [2]int{-1, 1} {
				nv := s.cand.vec
				nv[d] += delta
				if nv[d] < 0 || nv[d] >= e.dims[d] {
					continue
				}
				e.propose(nv, &props)
			}
		}
	}
	return props
}

// axisSweep proposes every unvisited single-dimension variant of v.
func (e *engine) axisSweep(v vec) []candidate {
	var props []candidate
	for d := 0; d < numDims; d++ {
		for val := 0; val < e.dims[d]; val++ {
			nv := v
			nv[d] = val
			e.propose(nv, &props)
		}
	}
	return props
}
