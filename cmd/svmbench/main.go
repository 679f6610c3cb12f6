// Command svmbench regenerates the paper's evaluation: every table
// (1-5) and figure (3-5).
//
// All measurement sweeps run through one shared session: independent
// runs fan out over -parallel workers, and every run is memoized by its
// spec, so configurations shared between figures/tables (sequential
// baselines, the AO base system...) execute exactly once.  Output is
// deterministic regardless of -parallel: results are collected by
// index, never by completion order.
//
// Examples:
//
//	svmbench -table 4
//	svmbench -figure 3 -apps fft,lu -parallel 8
//	svmbench -figure 3 -apps fft -json > fig3.json
//	svmbench -figure 3 -server http://127.0.0.1:7099
//	svmbench -hetero -apps lu,ocean-rowwise -csv hetero.csv
//	svmbench -all > results.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"swsm"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table N (1-5)")
		figure   = flag.Int("figure", 0, "regenerate figure N (3-5)")
		all      = flag.Bool("all", false, "regenerate everything")
		validate = flag.Bool("validate", false, "run the simulator-validation microbenchmarks (Appendix)")
		appsCS   = flag.String("apps", "", "comma-separated application subset (default: all)")
		procs    = flag.Int("procs", 16, "processor count")
		scale    = flag.String("scale", "base", "problem scale: tiny, base, large")
		csvPath  = flag.String("csv", "", "also write figure data as CSV to this file")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		jsonOut  = flag.Bool("json", false, "with -figure 3: print the grid as machine-readable JSON rows instead of tables")
		server   = flag.String("server", "", "with -figure 3: resolve the grid through a svmd daemon at this URL")

		traceOut    = flag.String("trace", "", "write a multi-run Chrome trace of the figure-3 config ladder to this file")
		traceSample = flag.Int64("trace-sample", 0, "sample the breakdown every N cycles in traced runs")
		hotK        = flag.Int("hot", 0, "print the top K hot pages/locks/barriers per traced run")

		degradation = flag.Bool("degradation", false, "run the slowdown-vs-drop-rate fault sweep")
		dropsCS     = flag.String("drops", "0.5,1,2,5", "comma-separated drop rates in percent for -degradation")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for the -degradation fault plans")

		litmusN     = flag.Int("litmus", 0, "run the litmus conformance sweep with N seeds across hlrc/lrc/sc")
		litmusSeed  = flag.Uint64("litmus-seed", 1, "first seed of the -litmus sweep")
		litmusDrops = flag.String("litmus-drops", "", "comma-separated drop percents for a faulted -litmus column (empty = clean fabric only)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")

		exploreApp    = flag.String("explore", "", "auto-tune APP: search the configuration space for the Pareto frontier of speedup vs. simulated cost")
		exploreBudget = flag.Int64("explore-budget", 0, "simulated-cycle budget for fresh (uncached) simulations; 0 runs the search to convergence")
		exploreSeed   = flag.Uint64("explore-seed", 1, "seed of the deterministic search")
		explorePoints = flag.Int("explore-points", 0, "Latin-hypercube seed-set size (0 = default 16)")
		exploreWidth  = flag.Int("explore-width", 0, "evaluation batch width (0 = default 8)")
		exploreProtos = flag.String("explore-protocols", "", "comma-separated protocol subset to search (default hlrc,lrc,sc)")
		exploreProcs  = flag.String("explore-procs", "", "comma-separated processor counts to search (default 4,8,16,32)")
		exploreStore  = flag.String("explore-store", "", "local mode: persistent result store directory — re-running the same search against it costs zero new simulations")

		hetero     = flag.Bool("hetero", false, "run the heterogeneity sweep: skew x placement x protocol with protocol-verdict flips")
		skewsCS    = flag.String("skews", "uniform,cpu4,cpu8,accel4,accel8,link4,link8,mixed", "comma-separated skew presets for -hetero")
		placements = flag.String("placements", "rr,adaptive", "comma-separated placement policies for -hetero")
	)
	flag.Parse()
	if *csvPath != "" {
		req := csvRequest{figure: *figure, json: *jsonOut, all: *all, server: *server,
			degradation: *degradation, litmus: *litmusN, hetero: *hetero, explore: *exploreApp}
		if err := req.check(); err != nil {
			fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	sc := swsm.Base
	switch *scale {
	case "tiny":
		sc = swsm.Tiny
	case "base":
		sc = swsm.Base
	case "large":
		sc = swsm.Large
	default:
		fatalf("unknown scale %q", *scale)
	}

	var sel []string
	if *appsCS == "" {
		sel = swsm.Apps()
	} else {
		sel = strings.Split(*appsCS, ",")
	}

	ses := swsm.NewSession(*parallel)

	if *exploreApp != "" {
		err := runExplore(ses, exploreOpts{
			app: *exploreApp, scale: sc,
			budget: *exploreBudget, seed: *exploreSeed,
			points: *explorePoints, width: *exploreWidth,
			protocols: *exploreProtos, procs: *exploreProcs,
			storeDir: *exploreStore, serverURL: *server,
			jsonOut: *jsonOut, csvPath: *csvPath,
		})
		if err != nil {
			fatalf("explore: %v", err)
		}
		return
	}

	if *server != "" {
		if *figure != 3 || *table != 0 || *all {
			fatalf("-server supports exactly -figure 3 (the speedup grid); run other sweeps locally")
		}
		if err := runFigure3Remote(*server, sel, sc, *procs, *jsonOut, *parallel); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *jsonOut {
		if *figure != 3 {
			fatalf("-json renders the -figure 3 grid; combine them")
		}
		if err := runFigure3JSON(ses, sel, sc, *procs); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *all {
		for t := 1; t <= 5; t++ {
			runTable(ses, t, sc, *procs)
		}
		for f := 3; f <= 5; f++ {
			runFigure(ses, f, sel, sc, *procs)
		}
		return
	}
	if *table != 0 {
		runTable(ses, *table, sc, *procs)
	}
	if *figure != 0 {
		t := runFigure(ses, *figure, sel, sc, *procs)
		if *csvPath != "" {
			if err := writeCSVFile(*csvPath, t); err != nil {
				fatalf("csv: %v", err)
			}
		}
	}
	if *traceOut != "" || *hotK > 0 {
		sweep(ses, "trace", func() {
			if err := runTraced(ses, sel, sc, *procs, *traceOut, *traceSample, *hotK); err != nil {
				fatalf("trace: %v", err)
			}
		})
	}
	if *degradation {
		sweep(ses, "degradation", func() {
			if err := runDegradation(ses, sel, sc, *procs, *faultSeed, *dropsCS, *csvPath); err != nil {
				fatalf("degradation: %v", err)
			}
		})
	}
	if *litmusN > 0 {
		sweep(ses, "litmus", func() {
			if err := runLitmus(ses, sc, *procs, *litmusSeed, *litmusN, *litmusDrops, *csvPath); err != nil {
				fatalf("litmus: %v", err)
			}
		})
	}
	if *hetero {
		sweep(ses, "hetero", func() {
			if err := runHetero(ses, sel, sc, *procs, *skewsCS, *placements, *csvPath); err != nil {
				fatalf("hetero: %v", err)
			}
		})
	}
	if *validate {
		res, err := harness.ValidateAll()
		if err != nil {
			fatalf("validate: %v", err)
		}
		fmt.Println("Simulator validation microbenchmarks (achievable parameters):")
		for _, r := range res {
			fmt.Printf("  %-24s %8d cycles (%.1f us @200MHz)\n", r.Name, r.Cycles, float64(r.Cycles)/200)
		}
		return
	}
	if *table == 0 && *figure == 0 && *traceOut == "" && *hotK == 0 && !*degradation && *litmusN == 0 && !*hetero {
		flag.Usage()
	}
}

// figureRow labels one cell of the Figure-3 grid for machine-readable
// output: "ideal" or "<protocol>/<config>" plus the full result row.
type figureRow struct {
	App   string      `json:"app"`
	Label string      `json:"label"`
	Row   swsm.RunRow `json:"row"`
}

// figure3Rows expands the grid for the selected apps and pairs each
// spec with its label, in deterministic output order.
func figure3Rows(sel []string, scale swsm.Scale, procs int) ([]figureRow, []swsm.RunSpec, error) {
	var rows []figureRow
	var specs []swsm.RunSpec
	for _, app := range sel {
		ss, labels, err := harness.Figure3Specs(app, scale, procs, harness.Figure3Configs)
		if err != nil {
			return nil, nil, err
		}
		for i := range ss {
			rows = append(rows, figureRow{App: app, Label: labels[i]})
			specs = append(specs, ss[i])
		}
	}
	return rows, specs, nil
}

// runFigure3JSON runs the grid locally through the shared session and
// prints it as JSON rows (speedups against each app's sequential
// baseline included) — the same shape svmd returns remotely.
func runFigure3JSON(ses *swsm.Session, sel []string, scale swsm.Scale, procs int) error {
	rows, specs, err := figure3Rows(sel, scale, procs)
	if err != nil {
		return err
	}
	results, err := ses.RunAll(specs)
	if err != nil {
		return err
	}
	seq := map[string]int64{}
	for i := range rows {
		base, ok := seq[rows[i].App]
		if !ok {
			if base, err = ses.SequentialBaseline(rows[i].App, scale, true); err != nil {
				return err
			}
			seq[rows[i].App] = base
		}
		rows[i].Row = swsm.NewRunRow(results[i]).WithSpeedup(base)
	}
	return printJSON(rows)
}

// printJSON prints v to stdout as indented JSON.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runFigure3Remote resolves the grid through a running svmd daemon:
// every point is submitted with speedup resolution and bounded client
// fan-out, so warm daemons answer the whole figure from their result
// store without simulating.  Points are submitted individually (not as
// one sweep) so a grid larger than the daemon's admission queue
// degrades to backoff-and-retry instead of rejection.
func runFigure3Remote(baseURL string, sel []string, scale swsm.Scale, procs int, jsonOut bool, parallel int) error {
	rows, specs, err := figure3Rows(sel, scale, procs)
	if err != nil {
		return err
	}
	if parallel <= 0 {
		parallel = 4
	}
	c := client.New(baseURL)
	start := time.Now()
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, parallel)
		mu       sync.Mutex
		firstErr error
		cached   int
	)
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			st, err := c.Run(context.Background(), api.RunRequest{Spec: specs[i], Speedup: true})
			mu.Lock()
			defer mu.Unlock()
			if err == nil && (st.State != api.StateDone || st.Row == nil) {
				err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s %s: %w", rows[i].App, rows[i].Label, err)
				}
				return
			}
			rows[i].Row = *st.Row
			if st.Cached {
				cached++
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if jsonOut {
		return printJSON(rows)
	}
	fmt.Println("Figure 3: speedups across layer configurations (via svmd)")
	for _, app := range sel {
		bar := &harness.AppBar{App: app, HLRC: map[string]float64{}, SC: map[string]float64{}}
		for _, r := range rows {
			if r.App != app {
				continue
			}
			switch {
			case r.Label == "ideal":
				bar.Ideal = r.Row.Speedup
			case strings.HasPrefix(r.Label, "hlrc/"):
				bar.HLRC[strings.TrimPrefix(r.Label, "hlrc/")] = r.Row.Speedup
			case strings.HasPrefix(r.Label, "sc/"):
				bar.SC[strings.TrimPrefix(r.Label, "sc/")] = r.Row.Speedup
			}
		}
		fmt.Print(swsm.FormatFigure3(bar, swsm.Figure3Configs))
	}
	fmt.Printf("[remote: %.2fs wall, %d points, %d served from the daemon's result store]\n",
		time.Since(start).Seconds(), len(rows), cached)
	return nil
}

// runLitmus sweeps the litmus ladder (n seeds x every real protocol,
// optionally with a faulted drop-rate column) with the conformance
// checker on, printing per-point coverage and failing on any violation.
func runLitmus(ses *swsm.Session, scale swsm.Scale, procs int, seed uint64, n int, dropsCS, csvPath string) error {
	var dropPPMs []int64
	if dropsCS != "" {
		var err error
		if dropPPMs, err = parseDrops("-litmus-drops", dropsCS); err != nil {
			return err
		}
	}
	protos := []swsm.ProtocolKind{swsm.HLRC, swsm.LRC, swsm.SC}
	points, err := ses.LitmusSweep(seed, n, protos, scale, procs, dropPPMs)
	if err != nil {
		return err
	}
	fmt.Printf("Litmus conformance sweep: seeds %d..%d x {hlrc, lrc, sc}, %d procs (checker on)\n",
		seed, seed+uint64(n)-1, procs)
	fmt.Print(swsm.FormatLitmus(points))
	if csvPath != "" {
		if err := writeCSVFile(csvPath, harness.LitmusTable(points)); err != nil {
			return err
		}
	}
	bad := 0
	for _, p := range points {
		if !p.Conforms() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d points violated their consistency model", bad, len(points))
	}
	fmt.Printf("all %d points conform\n", len(points))
	return nil
}

// runHetero sweeps machine skew x placement x protocol through the
// shared session and prints the speedup grid plus the protocol-verdict
// flips — the configurations where the protocol that wins on the
// paper's uniform cluster loses under skew.
func runHetero(ses *swsm.Session, sel []string, scale swsm.Scale, procs int, skewsCS, placementsCS, csvPath string) error {
	skews := splitList(skewsCS)
	placements := splitList(placementsCS)
	protos := []swsm.ProtocolKind{swsm.HLRC, swsm.SC}
	points, err := ses.HeterogeneitySweep(sel, protos, scale, procs, skews, placements)
	if err != nil {
		return err
	}
	fmt.Printf("Heterogeneity sweep: skew x placement x {hlrc, sc}, %d procs\n", procs)
	fmt.Print(swsm.FormatHeterogeneity(points))
	if csvPath == "" {
		return nil
	}
	return writeCSVFile(csvPath, harness.HeterogeneityTable(points))
}

// csvRequest holds the flags that decide which output, if any, writes
// -csv.
type csvRequest struct {
	figure              int
	json, all           bool
	server              string
	degradation, hetero bool
	litmus              int
	explore             string
}

// check rejects a -csv that no requested output would write, or that
// two would overwrite.  The writers are a local -figure without -json,
// -degradation, -litmus, -hetero and -explore.  -all, -json and -server
// run no other sweep that writes a CSV.
func (r csvRequest) check() error {
	local := !r.all && !r.json && r.server == ""
	n := 0
	for _, writes := range []bool{
		local && r.figure != 0, local && r.degradation, local && r.litmus > 0, local && r.hetero, r.explore != "",
	} {
		if writes {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("-csv needs exactly one of: a local -figure without -json, -degradation, -litmus, -hetero, -explore (%d given)", n)
	}
	return nil
}

// parseDrops parses a comma-separated list of drop percents into PPM,
// naming flag in its errors.
func parseDrops(flag, cs string) ([]int64, error) {
	var ppms []int64
	for _, s := range strings.Split(cs, ",") {
		pct, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %v", flag, cs, err)
		}
		if pct < 0 || pct > 100 {
			return nil, fmt.Errorf("%s rate %.2f outside [0, 100]", flag, pct)
		}
		ppms = append(ppms, int64(pct*1e4))
	}
	return ppms, nil
}

// writeCSVFile writes t to path as CSV and reports "wrote path".
func writeCSVFile(path string, t *harness.Table) error {
	if err := writeFile(path, t.WriteCSV); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList splits a comma-separated flag into trimmed entries.
func splitList(cs string) []string {
	var out []string
	for _, s := range strings.Split(cs, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// runDegradation sweeps drop rate x app x protocol through the shared
// session, printing the slowdown table (and optionally its CSV).  Each
// faulted run re-verifies the application's answer, so completing the
// sweep certifies correctness under every injected fault rate.
func runDegradation(ses *swsm.Session, sel []string, scale swsm.Scale, procs int, seed uint64, dropsCS, csvPath string) error {
	dropPPMs, err := parseDrops("-drops", dropsCS)
	if err != nil {
		return err
	}
	protos := []swsm.ProtocolKind{swsm.HLRC, swsm.SC}
	points, err := ses.DegradationSweep(sel, protos, scale, procs, seed, dropPPMs)
	if err != nil {
		return err
	}
	fmt.Printf("Degradation sweep: slowdown vs drop rate (seed %d, all answers verified)\n", seed)
	fmt.Print(swsm.FormatDegradation(points))
	if csvPath == "" {
		return nil
	}
	return writeCSVFile(csvPath, harness.DegradationTable(points))
}

// runTraced re-runs the figure-3 configuration ladder for each selected
// application with tracing enabled and writes every run into one
// multi-run Chrome trace (one Perfetto process per app/config pair).
// Traced specs are memoized separately from their untraced twins, so
// this never contaminates figure results.
func runTraced(ses *swsm.Session, sel []string, scale swsm.Scale, procs int, path string, sample int64, hotK int) error {
	var runs []swsm.TraceRun
	for _, app := range sel {
		specs, labels, err := swsm.TracedConfigSpecs(app, scale, procs, swsm.Figure3Configs, sample)
		if err != nil {
			return err
		}
		results, err := ses.RunAll(specs)
		if err != nil {
			return err
		}
		for i := range labels {
			labels[i] = app + "/" + labels[i]
		}
		runs = append(runs, swsm.TraceRuns(labels, results)...)
	}
	if hotK > 0 {
		for _, r := range runs {
			if r.Data.Hot == nil {
				continue
			}
			fmt.Printf("%s hot objects (top %d):\n%s", r.Label, hotK, harness.FormatHotObjects(r.Data.Hot, hotK))
		}
	}
	if path != "" {
		err := writeFile(path, func(w io.Writer) error { return swsm.WriteChromeTraceMulti(w, runs) })
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d traced runs)\n", path, len(runs))
	}
	return nil
}

// sweep times f and prints the one-line wall-clock + cache summary the
// session accumulated during it (skipped for static tables that run
// nothing).
func sweep(ses *swsm.Session, label string, f func()) {
	before := ses.Stats()
	start := time.Now()
	f()
	elapsed := time.Since(start)
	st := ses.Stats()
	runs := st.Runs - before.Runs
	hits := (st.Hits + st.Waits) - (before.Hits + before.Waits)
	if runs+hits == 0 {
		return
	}
	fmt.Printf("[%s: %.2fs wall, parallel=%d, %d runs, %d cache hits]\n",
		label, elapsed.Seconds(), ses.Parallelism(), runs, hits)
}

func runTable(ses *swsm.Session, n int, scale swsm.Scale, procs int) {
	sweep(ses, fmt.Sprintf("table %d", n), func() {
		switch n {
		case 1:
			fmt.Println("Table 1: applications and problem sizes")
			fmt.Print(swsm.Table1())
		case 2:
			fmt.Println("Table 2: communication parameter sets")
			fmt.Print(swsm.Table2())
		case 3:
			fmt.Println("Table 3: protocol cost sets")
			fmt.Print(swsm.Table3())
		case 4:
			fmt.Println("Table 4: % time in protocol activity (HLRC, base config)")
			rows, err := ses.Table4(scale, procs)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Print(swsm.FormatTable4(rows))
		case 5:
			fmt.Println("Table 5: per-application layer-importance summary (HLRC)")
			rows, err := ses.Table5(scale, procs)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Print(swsm.FormatTable5(rows))
		default:
			fatalf("no table %d (have 1-5)", n)
		}
	})
	fmt.Println()
}

// runFigure prints figure n for the selected apps and returns its data
// points as a table.
func runFigure(ses *swsm.Session, n int, sel []string, scale swsm.Scale, procs int) *harness.Table {
	var t *harness.Table
	sweep(ses, fmt.Sprintf("figure %d", n), func() {
		switch n {
		case 3:
			fmt.Println("Figure 3: speedups across layer configurations")
			var bars []*harness.AppBar
			for _, app := range sel {
				bar, err := ses.Figure3(app, scale, procs, harness.Figure3Configs)
				if err != nil {
					fatalf("%v", err)
				}
				fmt.Print(swsm.FormatFigure3(bar, swsm.Figure3Configs))
				fmt.Print(harness.RenderFigure3(bar, swsm.Figure3Configs))
				bars = append(bars, bar)
			}
			t = harness.Figure3Table(bars, swsm.Figure3Configs)
		case 4:
			fmt.Println("Figure 4: execution time breakdowns (avg cycles/proc)")
			var all []harness.Figure4Row
			for _, app := range sel {
				rows, err := ses.Figure4(app, scale, procs, harness.Figure3Configs)
				if err != nil {
					fatalf("%v", err)
				}
				fmt.Println(app)
				fmt.Print(swsm.FormatFigure4(rows))
				fmt.Print(harness.RenderFigure4(rows))
				all = append(all, rows...)
			}
			t = harness.Figure4Table(all)
		case 5:
			fmt.Println("Figure 5: one communication parameter varied at a time (speedups)")
			var all [][]harness.Figure5Point
			for _, app := range sel {
				pts, err := ses.Figure5(app, scale, procs)
				if err != nil {
					fatalf("%v", err)
				}
				fmt.Println(app)
				fmt.Print(swsm.FormatFigure5(pts))
				all = append(all, pts)
			}
			t = harness.Figure5Table(sel, all)
		default:
			fatalf("no figure %d (have 3-5)", n)
		}
	})
	fmt.Println()
	return t
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "svmbench: "+format+"\n", args...)
	os.Exit(1)
}
