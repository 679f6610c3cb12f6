package harness_test

import (
	"context"
	"strings"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/harness"
)

func TestTable4ShapeHolds(t *testing.T) {
	rows, err := harness.Table4(context.Background(), harness.NewSession(0).Points, apps.Names(), apps.Tiny, 8)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]harness.Table4Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.TotalPct < 0 || r.TotalPct > 100 {
			t.Fatalf("%s: protocol%% out of range: %f", r.App, r.TotalPct)
		}
	}
	// The migratory/multi-writer apps must show diff time (at Tiny scale
	// even the regular apps diff a little at partition boundaries, so
	// compare against them rather than asserting zero).
	for _, app := range []string{"water-nsquared", "radix"} {
		if byApp[app].DiffPct <= 0 {
			t.Fatalf("%s: diff%% = %f, want > 0", app, byApp[app].DiffPct)
		}
		if byApp[app].DiffPct <= byApp["lu"].DiffPct {
			t.Fatalf("%s diff%% (%f) should exceed lu's (%f)",
				app, byApp[app].DiffPct, byApp["lu"].DiffPct)
		}
	}
	out := harness.FormatTable4(rows)
	if !strings.Contains(out, "water-nsquared") {
		t.Fatal("format lost rows")
	}
}

func TestTable5Consistency(t *testing.T) {
	rows, err := harness.Table5(context.Background(), harness.NewSession(0).Points, apps.Names(), apps.Tiny, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ideal <= 0 {
			t.Fatalf("%s: nonpositive ideal", r.App)
		}
		// The ladder must not be inverted end to end.
		if r.BPlusB < r.AO*0.8 {
			t.Fatalf("%s: B+B (%f) worse than AO (%f)", r.App, r.BPlusB, r.AO)
		}
		// commFirst is defined as BO >= AB.
		if r.CommFirst != (r.BO >= r.AB) {
			t.Fatalf("%s: commFirst flag inconsistent with data", r.App)
		}
	}
	out := harness.FormatTable5(rows)
	if !strings.Contains(out, "needs") {
		t.Fatal("format header missing")
	}
}

func TestPerProcBreakdownPartitions(t *testing.T) {
	spec := harness.DefaultSpec("lu", harness.HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 4
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each processor's categories sum to its own finish time: no more
	// than the parallel execution time, and within a sliver of it (the
	// run ends at a barrier; only release-message skew remains).
	for i := range res.Stats.Procs {
		got := res.Stats.Procs[i].Total()
		if got > res.Stats.ExecCycles || got < res.Stats.ExecCycles*95/100 {
			t.Fatalf("proc %d breakdown %d vs exec %d", i, got, res.Stats.ExecCycles)
		}
	}
	out := harness.PerProcBreakdown(res)
	if !strings.Contains(out, "total") || len(strings.Split(out, "\n")) < 5 {
		t.Fatalf("per-proc table malformed:\n%s", out)
	}
}
