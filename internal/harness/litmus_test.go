package harness_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/apps/litmus"
	"swsm/internal/consistency"
	"swsm/internal/harness"
	"swsm/internal/proto"
	"swsm/internal/proto/hlrc"
)

var checkedProtos = []harness.ProtocolKind{harness.HLRC, harness.SC, harness.LRC}

// TestCheckedConformance is the acceptance matrix: every registered
// application on every real protocol with the conformance checker on.
// A pass certifies not just the right final answer but that every load
// of the run returned a value its protocol's consistency model permits.
func TestCheckedConformance(t *testing.T) {
	for _, app := range apps.Names() {
		if strings.HasPrefix(app, "litmus-") {
			continue // seeds registered by other tests; covered by the ladder
		}
		for _, prot := range checkedProtos {
			app, prot := app, prot
			t.Run(app+"/"+string(prot), func(t *testing.T) {
				t.Parallel()
				spec := harness.DefaultSpec(app, prot)
				spec.Scale = apps.Tiny
				spec.Procs = 4
				spec.Check = true
				res, err := harness.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				c := res.Consistency
				if c == nil || c.Loads == 0 {
					t.Fatal("checked run carries no checker coverage")
				}
			})
		}
	}
}

// TestCheckPerturbsNothing pins the observer property: the checker runs
// inside the simulated threads, yet turning it on must not change
// anything a run reports — cycles, breakdown, counters, imbalance — on
// every checked protocol, with adaptive homes on skewed nodes, and under
// drops.  The rows may differ only in what checking adds: the spec's
// Check flag, the content key it feeds, and the consistency summary.
func TestCheckPerturbsNothing(t *testing.T) {
	mixed, err := harness.HeteroSpec("mixed", "adaptive")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(app string, prot harness.ProtocolKind) harness.RunSpec {
		s := harness.DefaultSpec(app, prot)
		s.Scale = apps.Tiny
		s.Procs = 4
		return s
	}
	adaptive := spec("ocean-rowwise", harness.HLRC)
	adaptive.Hetero = mixed
	for _, c := range []struct {
		name string
		spec harness.RunSpec
		// fires names a counter that must be non-zero, so the case
		// exercises the mechanism it is there for.
		fires string
	}{
		{"hlrc", spec("fft", harness.HLRC), "pageFetches"},
		{"lrc", spec("fft", harness.LRC), "diffsCreated"},
		{"sc", spec("fft", harness.SC), "blockFetches"},
		{"adaptive-mixed", adaptive, "pagesRehomed"},
		{"hlrc-drop1pct", harness.FaultedSpec(spec("fft", harness.HLRC), 7, 10_000), "retransmits"},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			plain, err := harness.Run(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			checkedSpec := c.spec
			checkedSpec.Check = true
			checked, err := harness.Run(checkedSpec)
			if err != nil {
				t.Fatal(err)
			}
			if checked.Consistency == nil || checked.Consistency.Loads == 0 {
				t.Fatal("checked run carries no checker coverage")
			}
			row := harness.NewRunRow(checked)
			if row.Counters[c.fires] == 0 {
				t.Fatalf("no %s: the case does not exercise its mechanism", c.fires)
			}
			row.Spec.Check = false
			row.Key = row.Spec.Key()
			row.Consistency = nil
			got, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(harness.NewRunRow(plain))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checker perturbed the run:\nchecked:   %s\nunchecked: %s", got, want)
			}
		})
	}
}

func runLadder(t *testing.T, parallel int) []byte {
	t.Helper()
	s := harness.NewSession(parallel)
	points, err := harness.LitmusSweep(context.Background(), s.Points, 1, 32, checkedProtos, apps.Tiny, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if !p.Conforms() {
			t.Fatalf("seed %d on %s: %s", p.Seed, p.Proto, p.Violation)
		}
	}
	var buf bytes.Buffer
	if err := harness.LitmusTable(points).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLitmusLadder32Seeds is the acceptance ladder: 32 seeds across all
// three protocols, serial and 8-wide byte-identical.
func TestLitmusLadder32Seeds(t *testing.T) {
	serial := runLadder(t, 1)
	wide := runLadder(t, 8)
	if !bytes.Equal(serial, wide) {
		t.Fatal("litmus ladder differs between serial and 8-wide execution")
	}
	if lines := bytes.Count(serial, []byte("\n")); lines != 1+32*3 {
		t.Fatalf("CSV has %d lines, want header + 96 points", lines)
	}
}

// TestLitmusSweepFaulted drives the ladder through the fault plane: the
// reliable transport must keep every protocol conforming under 2% drops.
func TestLitmusSweepFaulted(t *testing.T) {
	s := harness.NewSession(0)
	points, err := harness.LitmusSweep(context.Background(), s.Points, 40, 4, checkedProtos, apps.Tiny, 4, []int64{0, 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4*3*2 {
		t.Fatalf("got %d points, want 24", len(points))
	}
	for _, p := range points {
		if !p.Conforms() {
			t.Fatalf("seed %d on %s at %d ppm: %s", p.Seed, p.Proto, p.DropPPM, p.Violation)
		}
		if p.Loads == 0 && p.Stores == 0 {
			t.Fatalf("seed %d on %s: empty coverage", p.Seed, p.Proto)
		}
	}
}

// brokenHLRC builds the known-bad shim: an HLRC that silently skips its
// n-th page invalidation while still merging vector clocks.
func brokenHLRC(n int) func() proto.Protocol {
	return func() proto.Protocol {
		return hlrc.New(hlrc.Config{Costs: proto.OriginalCosts(), DropNthInvalidation: n})
	}
}

// findBrokenSeed locates a (seed, drop-n) pair where the broken shim
// produces a checker violation on a litmus program.
func findBrokenSeed(t *testing.T) (uint64, int, *litmus.Program, harness.RunSpec) {
	t.Helper()
	for seed := uint64(1); seed <= 60; seed++ {
		spec := harness.LitmusSpec(seed, harness.HLRC, apps.Base, 4)
		prog := litmus.Generate(seed, 4, apps.Base)
		for n := 1; n <= 3; n++ {
			_, err := harness.RunInstance(spec, prog.Clone(), brokenHLRC(n))
			var v *consistency.Violation
			if errors.As(err, &v) {
				return seed, n, prog, spec
			}
		}
	}
	t.Fatal("no litmus seed exposed the dropped invalidation — checker or generator too weak")
	return 0, 0, nil, harness.RunSpec{}
}

// TestBrokenProtocolCaughtAndShrunk is the anti-vacuity oracle: a
// protocol that skips one invalidation must be caught by the checker on
// a litmus program, the same program must pass on the intact protocol,
// and the shrinker must emit a smaller, still-failing reproducer.
func TestBrokenProtocolCaughtAndShrunk(t *testing.T) {
	seed, n, prog, spec := findBrokenSeed(t)
	t.Logf("broken shim (drop invalidation #%d) caught on seed %d", n, seed)

	// Anti-vacuity: the intact protocol must pass the very same program.
	if _, err := harness.RunInstance(spec, prog.Clone(), nil); err != nil {
		t.Fatalf("intact protocol fails seed %d: %v", seed, err)
	}

	min := harness.ShrinkLitmus(spec, prog, brokenHLRC(n))
	if min == nil {
		t.Fatal("shrinker claims the original does not fail")
	}
	if min.Ops() > prog.Ops() {
		t.Fatalf("shrunk program grew: %d -> %d ops", prog.Ops(), min.Ops())
	}
	// The minimal reproducer still fails the broken shim...
	_, err := harness.RunInstance(spec, min.Clone(), brokenHLRC(n))
	var v *consistency.Violation
	if !errors.As(err, &v) {
		t.Fatalf("shrunk reproducer no longer fails: %v", err)
	}
	// ...and prints an actionable report.
	if !strings.Contains(min.String(), "P0:") {
		t.Fatalf("reproducer does not render:\n%s", min)
	}
	t.Logf("minimal reproducer (%d of %d ops):\n%s\nviolation: %v", min.Ops(), prog.Ops(), min, v)
}

// TestLitmusSweepGridOrder pins the deterministic point ordering.
func TestLitmusSweepGridOrder(t *testing.T) {
	s := harness.NewSession(0)
	points, err := harness.LitmusSweep(context.Background(), s.Points, 100, 2, []harness.ProtocolKind{harness.HLRC, harness.SC}, apps.Tiny, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		seed uint64
		prot harness.ProtocolKind
	}{{100, harness.HLRC}, {100, harness.SC}, {101, harness.HLRC}, {101, harness.SC}}
	if len(points) != len(want) {
		t.Fatalf("got %d points, want %d", len(points), len(want))
	}
	for i, w := range want {
		if points[i].Seed != w.seed || points[i].Proto != w.prot {
			t.Fatalf("point %d = seed %d/%s, want %d/%s",
				i, points[i].Seed, points[i].Proto, w.seed, w.prot)
		}
		if points[i].Cycles <= 0 {
			t.Fatalf("point %d missing cycles", i)
		}
	}
	if harness.FormatLitmus(points) == "" {
		t.Fatal("empty formatted output")
	}
	// The sweep resolved its programs by name and registered nothing,
	// so the static suite and the tables over it are unchanged.
	for _, name := range apps.Names() {
		if strings.HasPrefix(name, "litmus-") {
			t.Fatalf("apps.Names lists %q after a litmus sweep", name)
		}
	}
	if tab := harness.Table1(); strings.Contains(tab, "litmus-") {
		t.Fatalf("Table1 lists a litmus program after a litmus sweep:\n%s", tab)
	}
}

// TestCheckedRunReportsViolationBeforeVerification pins the order of a
// checked run's verdicts: when the broken shim makes ocean compute a
// wrong grid, the run returns the checker's violation, which explains
// the wrong value, rather than the failed verification.
func TestCheckedRunReportsViolationBeforeVerification(t *testing.T) {
	spec := harness.DefaultSpec("ocean", harness.HLRC)
	spec.Scale, spec.Procs, spec.Check = apps.Tiny, 4, true
	inst, err := apps.New(spec.App, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	_, err = harness.RunInstance(spec, inst, brokenHLRC(1))
	var v *consistency.Violation
	if !errors.As(err, &v) {
		t.Fatalf("checked ocean on the broken shim returned %v, want a consistency violation", err)
	}
}

// TestLitmusSweepReportsViolation pins the decision both point sources
// share: a point whose run the checker failed carries the checker's
// own report, the text errors.As finds on the run's error, and a point
// that failed any other way aborts the sweep.
func TestLitmusSweepReportsViolation(t *testing.T) {
	ctx := context.Background()
	sc := []harness.ProtocolKind{harness.SC}
	_, err := harness.Run(harness.LitmusSpec(15, harness.SC, apps.Base, 4))
	var v *consistency.Violation
	if !errors.As(err, &v) {
		t.Fatalf("sc seed 15 at Base/4p: err = %v, want a consistency violation", err)
	}
	pts, err := harness.LitmusSweep(ctx, harness.NewSession(1).Points, 15, 1, sc, apps.Base, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Violation != v.Error() {
		t.Fatalf("point report:\n%s\nwant the checker's:\n%s", pts[0].Violation, v.Error())
	}
	for _, failure := range []string{
		"harness: litmus-15 on sc failed verification: cell 3 = 1, want 2",
		"harness: litmus-16 on sc: " + v.Error(), // another run's report
		"job j1 canceled",
	} {
		failed := func(context.Context, []harness.RunSpec) ([]harness.Point, error) {
			return []harness.Point{{Failure: failure}}, nil
		}
		if _, err := harness.LitmusSweep(ctx, failed, 15, 1, sc, apps.Base, 4, nil); err == nil || !strings.Contains(err.Error(), failure) {
			t.Errorf("failure %q: sweep err = %v, want it to abort with the failure", failure, err)
		}
	}
}
