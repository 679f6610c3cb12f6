package explore

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"swsm/internal/harness"
	"swsm/internal/hetero"
	"swsm/internal/store"

	// The search tests run real simulations of the fft kernel.
	_ "swsm/internal/apps/fft"
)

// smallReq is the compact search used by the determinism tests: 8
// canonical points (2 protocols x 2 comm sets x 1 cost set x 2 proc
// counts), so a full search touches the whole space quickly.
func smallReq(seed uint64, width int) Request {
	return Request{
		App:        "fft",
		Scale:      0,
		Seed:       seed,
		SeedPoints: 8,
		Width:      width,
		Space: Space{
			Protocols:      []harness.ProtocolKind{harness.HLRC, harness.SC},
			CommSets:       []string{"A", "B"},
			CostSets:       []string{"O"},
			Procs:          []int{2, 4},
			HLRCUnitShifts: []uint{0},
			SCBlocks:       []int{0},
			DropPPMs:       []int64{0},
		},
	}
}

func mustRun(t *testing.T, req Request, ev Evaluator) *Report {
	t.Helper()
	rep, err := Run(context.Background(), req, ev, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func frontierJSON(t *testing.T, f []Point) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal frontier: %v", err)
	}
	return string(b)
}

// Same seed and budget must yield a byte-identical frontier whether
// candidates are evaluated one at a time or 8-wide.
func TestRunDeterministicAcrossWidths(t *testing.T) {
	serial := mustRun(t, smallReq(7, 1), SessionEvaluator{Ses: harness.NewSession(1)})
	wide := mustRun(t, smallReq(7, 8), SessionEvaluator{Ses: harness.NewSession(8)})

	if got, want := frontierJSON(t, wide.Frontier), frontierJSON(t, serial.Frontier); got != want {
		t.Errorf("frontiers diverge across widths:\nserial: %s\n8-wide: %s", want, got)
	}
	if serial.Evaluated != wide.Evaluated || serial.SeqCycles != wide.SeqCycles {
		t.Errorf("trajectories diverge: serial evaluated %d (seq %d), wide evaluated %d (seq %d)",
			serial.Evaluated, serial.SeqCycles, wide.Evaluated, wide.SeqCycles)
	}
	if serial.Stopped != "converged" || wide.Stopped != "converged" {
		t.Errorf("stopped = %q / %q, want converged", serial.Stopped, wide.Stopped)
	}
	// Different seeds explore in a different order.
	other := mustRun(t, smallReq(8, 8), SessionEvaluator{Ses: harness.NewSession(8)})
	if len(other.Frontier) == 0 {
		t.Fatal("seed 8 found nothing")
	}
}

// A re-run over a warm persistent store must replay the identical
// trajectory with zero new simulations.
func TestRunWarmStoreRerun(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := mustRun(t, smallReq(3, 4), SessionEvaluator{Ses: harness.NewSession(4), St: st})
	if cold.SimsRun == 0 {
		t.Fatal("cold run simulated nothing")
	}

	// Fresh session, same store: everything is warm.
	warm := mustRun(t, smallReq(3, 4), SessionEvaluator{Ses: harness.NewSession(4), St: st})
	if warm.SimsRun != 0 {
		t.Errorf("warm re-run ran %d fresh simulations, want 0", warm.SimsRun)
	}
	if warm.SpentCycles != 0 {
		t.Errorf("warm re-run spent %d budget cycles, want 0", warm.SpentCycles)
	}
	if got, want := frontierJSON(t, warm.Frontier), frontierJSON(t, cold.Frontier); got != want {
		t.Errorf("warm frontier diverges from cold:\ncold: %s\nwarm: %s", want, got)
	}
	if warm.CostCycles != cold.CostCycles {
		t.Errorf("cost ledger diverges: cold %d, warm %d", cold.CostCycles, warm.CostCycles)
	}

	// Every frontier point's row must be resolvable from the store by
	// its content key, and must describe the point's exact spec.
	for _, p := range cold.Frontier {
		payload, ok := st.Get(p.Key)
		if !ok {
			t.Errorf("frontier point %s: key %s not in store", p.Label, p.Key)
			continue
		}
		var row harness.RunRow
		if err := json.Unmarshal(payload, &row); err != nil {
			t.Errorf("frontier point %s: undecodable row: %v", p.Label, err)
			continue
		}
		if row.Spec != p.Spec {
			t.Errorf("frontier point %s: stored spec differs from point spec", p.Label)
		}
		if row.Cycles != p.Cycles {
			t.Errorf("frontier point %s: stored cycles %d != point cycles %d", p.Label, row.Cycles, p.Cycles)
		}
	}
}

// The frontier is an anytime curve: strictly increasing in speedup,
// cost and evaluation index, and no evaluated configuration dominates
// any point.
func TestFrontierInvariants(t *testing.T) {
	rep := mustRun(t, smallReq(5, 8), SessionEvaluator{Ses: harness.NewSession(8)})
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i, p := range rep.Frontier {
		if p.Speedup <= 0 || p.Cycles <= 0 || p.CostCycles <= 0 || p.Eval < 2 {
			t.Errorf("point %d (%s): degenerate fields %+v", i, p.Label, p)
		}
		if p.Key == "" || !strings.HasPrefix(p.Key, "v") {
			t.Errorf("point %d: bad key %q", i, p.Key)
		}
		if i == 0 {
			continue
		}
		prev := rep.Frontier[i-1]
		if p.Speedup <= prev.Speedup {
			t.Errorf("point %d: speedup %v not above predecessor %v", i, p.Speedup, prev.Speedup)
		}
		if p.CostCycles <= prev.CostCycles {
			t.Errorf("point %d: cost %d not above predecessor %d", i, p.CostCycles, prev.CostCycles)
		}
		if p.Eval <= prev.Eval {
			t.Errorf("point %d: eval %d not above predecessor %d", i, p.Eval, prev.Eval)
		}
	}
	if rep.BestSpeedup != rep.Frontier[len(rep.Frontier)-1].Speedup {
		t.Error("BestSpeedup is not the last frontier point's")
	}
	if rep.Evaluated != rep.SimsRun+rep.CachedHits+rep.Errors+0 {
		// The baseline is included in Evaluated and in exactly one of
		// the outcome counters.
		t.Errorf("counters do not add up: evaluated %d, sims %d, cached %d, errors %d",
			rep.Evaluated, rep.SimsRun, rep.CachedHits, rep.Errors)
	}
}

// A budget of one cycle stops the search at the first batch boundary:
// the baseline is charged, then the search halts before proposing.
func TestBudgetStops(t *testing.T) {
	req := smallReq(1, 8)
	req.Budget = 1
	rep := mustRun(t, req, SessionEvaluator{Ses: harness.NewSession(2)})
	if rep.Stopped != "budget" {
		t.Errorf("stopped = %q, want budget", rep.Stopped)
	}
	if rep.Evaluated != 1 {
		t.Errorf("evaluated %d configurations under a 1-cycle budget, want 1 (baseline only)", rep.Evaluated)
	}
	if rep.SpentCycles < rep.Budget {
		t.Errorf("spent %d < budget %d at a budget stop", rep.SpentCycles, rep.Budget)
	}
}

// Cancellation surfaces as a context error, not a truncated report.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, smallReq(1, 8), SessionEvaluator{Ses: harness.NewSession(1)}, nil)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("canceled run returned %v, want context canceled", err)
	}
}

func TestRequestValidation(t *testing.T) {
	bad := []Request{
		{App: "no-such-app"},
		{App: "fft", Scale: 9},
		{App: "fft", Budget: -1},
		{App: "fft", SeedPoints: -2},
		{App: "fft", Width: 1000},
		{App: "fft", Space: Space{Protocols: []harness.ProtocolKind{"ideal"}}},
		{App: "fft", Space: Space{CommSets: []string{"Z"}}},
		{App: "fft", Space: Space{CostSets: []string{"Z"}}},
		{App: "fft", Space: Space{Procs: []int{0}}},
		{App: "fft", Space: Space{Procs: []int{128}}},
		{App: "fft", Space: Space{HLRCUnitShifts: []uint{13}}},
		{App: "fft", Space: Space{SCBlocks: []int{8192}}},
		{App: "fft", Space: Space{DropPPMs: []int64{-1}}},
		{App: "fft", Space: Space{Skews: []string{"warp9"}}},
		{App: "fft", Space: Space{Placements: []string{"clairvoyant"}}},
	}
	for i, r := range bad {
		if _, err := r.WithDefaults(); err == nil {
			t.Errorf("request %d accepted, want error", i)
		}
	}

	ok, err := Request{App: "fft"}.WithDefaults()
	if err != nil {
		t.Fatalf("default request rejected: %v", err)
	}
	if ok.SeedPoints != 16 || ok.Width != 8 {
		t.Errorf("defaults = points %d width %d, want 16/8", ok.SeedPoints, ok.Width)
	}
	// SeedPoints are capped at the space size.
	small, err := smallReq(1, 8).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if small.SeedPoints != 8 {
		t.Errorf("seed points %d, want capped at space size 8", small.SeedPoints)
	}
}

// canon pins protocol-irrelevant dimensions, making vec<->spec a
// bijection; size counts canonical points only.
func TestSpaceCanonAndSize(t *testing.T) {
	s := Space{
		Protocols:      []harness.ProtocolKind{harness.HLRC, harness.SC},
		CommSets:       []string{"A"},
		CostSets:       []string{"O"},
		Procs:          []int{4},
		HLRCUnitShifts: []uint{0, 10},
		SCBlocks:       []int{0, 64},
		DropPPMs:       []int64{0},
	}.withDefaults()
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	// hlrc: 2 unit shifts; sc: 2 blocks -> 4 canonical points.
	if got := s.size(); got != 4 {
		t.Errorf("size = %d, want 4", got)
	}
	// An sc point's unit index collapses to 0, an hlrc point's block
	// index collapses to 0.
	sc := s.canon(vec{dimProto: 1, dimUnit: 1, dimBlock: 1})
	if sc[dimUnit] != 0 || sc[dimBlock] != 1 {
		t.Errorf("sc canon = %v, want unit pinned", sc)
	}
	hl := s.canon(vec{dimProto: 0, dimUnit: 1, dimBlock: 1})
	if hl[dimUnit] != 1 || hl[dimBlock] != 0 {
		t.Errorf("hlrc canon = %v, want block pinned", hl)
	}
	// Labels elide default-valued overrides.
	if got := s.label(vec{dimProto: 0, dimProcs: 0, dimUnit: 1}); got != "hlrc/AO/p4/u10" {
		t.Errorf("label = %q", got)
	}
	if got := s.label(vec{dimProto: 1, dimBlock: 1}); got != "sc/AO/p4/b64" {
		t.Errorf("label = %q", got)
	}
}

// The heterogeneity dimensions: placements are HLRC-only, adaptive
// grain collapses the unit dimension, and labels name non-default
// skew/placement.
func TestSpaceHeteroDims(t *testing.T) {
	s := Space{
		Protocols:      []harness.ProtocolKind{harness.HLRC, harness.SC},
		CommSets:       []string{"A"},
		CostSets:       []string{"O"},
		Procs:          []int{8},
		HLRCUnitShifts: []uint{0, 10},
		SCBlocks:       []int{0},
		DropPPMs:       []int64{0},
		Skews:          []string{"uniform", "cpu4"},
		Placements:     []string{"rr", "adaptive", "adaptive+grain"},
	}.withDefaults()
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	// hlrc: 2 skews x (2 units x 3 placements collapsing to 2x2+1 per the
	// adaptive+grain pin... size() counts the full product 2*3=6) = 12;
	// sc: 2 skews x 1 block = 2.
	if got := s.size(); got != 14 {
		t.Errorf("size = %d, want 14", got)
	}
	// SC pins both unit and placement.
	sc := s.canon(vec{dimProto: 1, dimUnit: 1, dimPlace: 2, dimSkew: 1})
	if sc[dimUnit] != 0 || sc[dimPlace] != 0 || sc[dimSkew] != 1 {
		t.Errorf("sc canon = %v, want unit+placement pinned, skew kept", sc)
	}
	// HLRC with adaptive grain pins the unit shift (the harness rejects
	// the combination); plain adaptive keeps it.
	ag := s.canon(vec{dimProto: 0, dimUnit: 1, dimPlace: 2})
	if ag[dimUnit] != 0 || ag[dimPlace] != 2 {
		t.Errorf("adaptive+grain canon = %v, want unit pinned", ag)
	}
	ad := s.canon(vec{dimProto: 0, dimUnit: 1, dimPlace: 1})
	if ad[dimUnit] != 1 || ad[dimPlace] != 1 {
		t.Errorf("adaptive canon = %v, want unit kept", ad)
	}
	// Materialized specs carry the composed hetero.Spec.
	spec := s.spec("fft", 0, vec{dimProto: 0, dimSkew: 1, dimPlace: 1})
	if spec.Hetero.Placement != hetero.PlaceAdaptive || spec.Hetero.SlowNum != 4 {
		t.Errorf("spec hetero = %+v, want cpu4/adaptive", spec.Hetero)
	}
	if err := spec.Hetero.Validate(); err != nil {
		t.Errorf("materialized hetero spec invalid: %v", err)
	}
	grain := s.spec("fft", 0, s.canon(vec{dimProto: 0, dimUnit: 1, dimPlace: 2}))
	if grain.HLRCUnitShift != 0 || grain.Hetero.Grain != hetero.GrainAdaptive {
		t.Errorf("adaptive+grain spec = shift %d grain %v, want shift pinned to 0", grain.HLRCUnitShift, grain.Hetero.Grain)
	}
	// Labels: default skew and first placement elided only when default.
	if got := s.label(vec{dimProto: 0, dimSkew: 1, dimPlace: 1}); got != "hlrc/AO/p8/cpu4/adaptive" {
		t.Errorf("label = %q", got)
	}
	if got := s.label(vec{dimProto: 0}); got != "hlrc/AO/p8/rr" {
		t.Errorf("label = %q", got)
	}
}

func TestWriteFrontierCSV(t *testing.T) {
	var b strings.Builder
	pts := []Point{{Key: "v1-abc", Label: "hlrc/BO/p4", Cycles: 100, Speedup: 2.5, CostCycles: 400, Eval: 3}}
	if err := FrontierTable(pts).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "eval,cost_cycles,speedup,cycles,label,key\n3,400,2.5000,100,hlrc/BO/p4,v1-abc\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}
