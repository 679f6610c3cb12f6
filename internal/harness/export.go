package harness

import (
	"encoding/csv"
	"io"
	"strconv"

	"swsm/internal/stats"
	"swsm/internal/trace"
)

// CSV exporters so the regenerated figures can be re-plotted with any
// external tool.

// WriteFigure3CSV emits one row per (protocol, configuration) bar:
// app,protocol,config,speedup.
func WriteFigure3CSV(w io.Writer, bars []*AppBar, configs []LayerConfig) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "protocol", "config", "speedup"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, b := range bars {
		if err := cw.Write([]string{b.App, "ideal", "ideal", f(b.Ideal)}); err != nil {
			return err
		}
		for _, lc := range configs {
			if err := cw.Write([]string{b.App, "hlrc", lc.Label(), f(b.HLRC[lc.Label()])}); err != nil {
				return err
			}
			if err := cw.Write([]string{b.App, "sc", lc.Label(), f(b.SC[lc.Label()])}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure4CSV emits one row per breakdown bar with a column per
// category (average cycles per processor).
func WriteFigure4CSV(w io.Writer, rows []Figure4Row) error {
	cw := csv.NewWriter(w)
	header := []string{"app", "protocol", "config", "cycles"}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		header = append(header, c.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.App, string(r.Proto), r.Config, strconv.FormatInt(r.Cycles, 10)}
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			rec = append(rec, strconv.FormatFloat(r.Breakdown[c], 'f', 0, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure5CSV emits one row per sweep point:
// app,protocol,parameter,factor,speedup.
func WriteFigure5CSV(w io.Writer, app string, points []Figure5Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "protocol", "parameter", "factor", "speedup"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{app, string(p.Proto), p.Param, p.Factor,
			strconv.FormatFloat(p.Speedup, 'f', 4, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBreakdownTimelineCSV emits a traced run's breakdown time series:
// one row per sample with the cycles each Figure-4 category accrued
// (machine-wide) since the previous sample.  Column order matches the
// figure's category order; summing a column over all rows reproduces the
// end-of-run breakdown total for that category.
func WriteBreakdownTimelineCSV(w io.Writer, samples []trace.Sample) error {
	cw := csv.NewWriter(w)
	header := []string{"cycle"}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		header = append(header, c.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{strconv.FormatInt(s.Cycle, 10)}
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			rec = append(rec, strconv.FormatInt(s.Delta[c], 10))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHotObjectsCSV emits a traced run's hot-object ranking: the top k
// pages (coherence units), locks and barriers, hottest first (all if
// k <= 0).  Sync objects leave the page-only columns zero.
func WriteHotObjectsCSV(w io.Writer, p *trace.Profile, k int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kind", "id", "events", "wait_cycles", "fetches", "diff_bytes", "twins", "invalidations",
	}); err != nil {
		return err
	}
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, ps := range p.TopPages(k) {
		if err := cw.Write([]string{
			"page", n(ps.ID), n(ps.Faults), n(ps.FetchWait), n(ps.Fetches),
			n(ps.DiffBytes), n(ps.Twins), n(ps.Invals),
		}); err != nil {
			return err
		}
	}
	writeSync := func(kind string, rows []trace.SyncStats) error {
		for _, ss := range rows {
			if err := cw.Write([]string{
				kind, n(ss.ID), n(ss.Count), n(ss.Wait), "0", "0", "0", "0",
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeSync("lock", p.TopLocks(k)); err != nil {
		return err
	}
	if err := writeSync("barrier", p.TopBarriers(k)); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
