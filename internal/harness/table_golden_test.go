package harness_test

import (
	"bytes"
	"context"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/explore"
	"swsm/internal/harness"
)

// TestExportGoldens pins every experiment CSV export byte for byte at a
// fixed Tiny grid: Figures 3-5 for two apps, a litmus run with and
// without drops, an fft degradation sweep, the reference heterogeneity
// sweep, a traced run's timeline and top-3 hot objects, and a frontier
// whose label needs CSV quoting.
func TestExportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole grid")
	}
	s := harness.NewSession(0)
	sel := []string{"fft", "radix"}
	const procs = 4

	var bars []*harness.AppBar
	var fig4 []harness.Figure4Row
	var fig5 [][]harness.Figure5Point
	for _, app := range sel {
		b, err := harness.Figure3(context.Background(), s.Points, app, apps.Tiny, procs, harness.Figure3Configs)
		if err != nil {
			t.Fatal(err)
		}
		bars = append(bars, b)
		rows, err := harness.Figure4(context.Background(), s.Points, app, apps.Tiny, procs, harness.Figure3Configs)
		if err != nil {
			t.Fatal(err)
		}
		fig4 = append(fig4, rows...)
		pts, err := harness.Figure5(context.Background(), s.Points, app, apps.Tiny, procs)
		if err != nil {
			t.Fatal(err)
		}
		fig5 = append(fig5, pts)
	}
	litmus, err := harness.LitmusSweep(context.Background(), s.Points, 1, 4, checkedProtos, apps.Tiny, procs, []int64{0, 20_000})
	if err != nil {
		t.Fatal(err)
	}
	degr, err := harness.DegradationSweep(context.Background(), s.Points, []string{"fft"}, []harness.ProtocolKind{harness.HLRC, harness.SC},
		apps.Tiny, procs, 1, []int64{10_000, 20_000})
	if err != nil {
		t.Fatal(err)
	}
	hetero, _, _ := heteroSweepCSV(t, 0)
	traced := harness.DefaultSpec("fft", harness.HLRC)
	traced.Scale, traced.Procs = apps.Tiny, procs
	traced.Trace, traced.TraceSample = true, 5000
	res, err := s.Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	frontier := []explore.Point{
		{Eval: 1, Label: "hlrc/AO/4p", Key: "k1", Cycles: 1_000_000, Speedup: 1.23456, CostCycles: 4_000_000},
		{Eval: 7, Label: `sc,"blk 64"/BO`, Key: "k7", Cycles: 700_000, Speedup: 2.5, CostCycles: 9_000_000},
	}

	for _, tc := range []struct {
		golden string
		table  *harness.Table
	}{
		{"fig3.golden.csv", harness.Figure3Table(bars, harness.Figure3Configs)},
		{"fig4.golden.csv", harness.Figure4Table(fig4)},
		{"fig5.golden.csv", harness.Figure5Table(sel, fig5)},
		{"litmus.golden.csv", harness.LitmusTable(litmus)},
		{"degradation.golden.csv", harness.DegradationTable(degr)},
		{"hetero.golden.csv", harness.HeterogeneityTable(hetero)},
		{"timeline_fft.golden.csv", harness.BreakdownTimelineTable(res.Trace.Samples)},
		{"hot_fft_top3.golden.csv", harness.HotObjectsTable(res.Trace.Hot, 3)},
		{"frontier.golden.csv", explore.FrontierTable(frontier)},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.table.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			harness.CheckGolden(t, buf.Bytes(), tc.golden)
		})
	}
}
