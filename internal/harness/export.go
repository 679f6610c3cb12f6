package harness

import (
	"fmt"
	"strings"

	"swsm/internal/stats"
	"swsm/internal/trace"
)

// Table projections of the figures and traced runs, so the regenerated
// data can be re-plotted with any external tool.

// Figure3Table holds one row per (protocol, configuration) bar:
// app,protocol,config,speedup.
func Figure3Table(bars []*AppBar, configs []LayerConfig) *Table {
	t := &Table{Columns: []string{"app", "protocol", "config", "speedup"}}
	for _, b := range bars {
		t.Rows = append(t.Rows, []any{b.App, "ideal", "ideal", Float{b.Ideal, 4}})
		for _, lc := range configs {
			t.Rows = append(t.Rows,
				[]any{b.App, "hlrc", lc.Label(), Float{b.HLRC[lc.Label()], 4}},
				[]any{b.App, "sc", lc.Label(), Float{b.SC[lc.Label()], 4}})
		}
	}
	return t
}

// categoryColumns is cols followed by one column per Figure-4 category.
func categoryColumns(cols ...string) []string {
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		cols = append(cols, c.String())
	}
	return cols
}

// Figure4Table holds one row per breakdown bar with a column per
// category (average cycles per processor).
func Figure4Table(rows []Figure4Row) *Table {
	t := &Table{Columns: categoryColumns("app", "protocol", "config", "cycles")}
	for _, r := range rows {
		row := []any{r.App, string(r.Proto), r.Config, r.Cycles}
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			row = append(row, Float{r.Breakdown[c], 0})
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure5Table holds one row per sweep point of every app, under one
// header: app,protocol,parameter,factor,speedup.  points[i] is
// apps[i]'s sweep.
func Figure5Table(apps []string, points [][]Figure5Point) *Table {
	t := &Table{Columns: []string{"app", "protocol", "parameter", "factor", "speedup"}}
	for i, app := range apps {
		for _, p := range points[i] {
			t.Rows = append(t.Rows, []any{app, string(p.Proto), p.Param, p.Factor, Float{p.Speedup, 4}})
		}
	}
	return t
}

// BreakdownTimelineTable holds a traced run's breakdown time series:
// one row per sample with the cycles each Figure-4 category accrued
// (machine-wide) since the previous sample.  Column order matches the
// figure's category order; summing a column over all rows reproduces the
// end-of-run breakdown total for that category.
func BreakdownTimelineTable(samples []trace.Sample) *Table {
	t := &Table{Columns: categoryColumns("cycle")}
	for _, s := range samples {
		row := []any{s.Cycle}
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			row = append(row, s.Delta[c])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// HotObjectsTable holds a traced run's hot-object ranking: the top k
// pages (coherence units), locks and barriers, hottest first (all if
// k <= 0).  Sync objects leave the page-only columns zero.
func HotObjectsTable(p *trace.Profile, k int) *Table {
	t := &Table{Columns: []string{
		"kind", "id", "events", "wait_cycles", "fetches", "diff_bytes", "twins", "invalidations",
	}}
	for _, ps := range p.TopPages(k) {
		t.Rows = append(t.Rows, []any{
			"page", ps.ID, ps.Faults, ps.FetchWait, ps.Fetches, ps.DiffBytes, ps.Twins, ps.Invals,
		})
	}
	sync := func(kind string, rows []trace.SyncStats) {
		for _, ss := range rows {
			t.Rows = append(t.Rows, []any{kind, ss.ID, ss.Count, ss.Wait, int64(0), int64(0), int64(0), int64(0)})
		}
	}
	sync("lock", p.TopLocks(k))
	sync("barrier", p.TopBarriers(k))
	return t
}

// FormatHotObjects renders the same ranking as HotObjectsTable, one line
// per object.
func FormatHotObjects(p *trace.Profile, k int) string {
	var sb strings.Builder
	for _, ps := range p.TopPages(k) {
		fmt.Fprintf(&sb, "  page %6d: faults %d, fetches %d (wait %d cy), diffs %d (%d B), twins %d, invals %d\n",
			ps.ID, ps.Faults, ps.Fetches, ps.FetchWait, ps.Diffs, ps.DiffBytes, ps.Twins, ps.Invals)
	}
	for _, l := range p.TopLocks(k) {
		fmt.Fprintf(&sb, "  lock %6d: acquires %d, wait %d cy\n", l.ID, l.Count, l.Wait)
	}
	for _, b := range p.TopBarriers(k) {
		fmt.Fprintf(&sb, "  barrier %4d: episodes %d, wait %d cy\n", b.ID, b.Count, b.Wait)
	}
	return sb.String()
}
