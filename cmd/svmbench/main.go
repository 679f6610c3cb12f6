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
// Every requested output runs, in a fixed order, or the command exits 2
// before any runs: -json, -server and -csv must fit the outputs
// requested, and a flag that none of them reads is rejected.  Every
// output but -trace and -validate prints the same report in process and
// through an svmd daemon (-server): each is a list of specs, resolved
// to points by the session or the daemon, and one projection of them.
//
// Examples:
//
//	svmbench -table 4
//	svmbench -figure 3 -apps fft,lu -parallel 8
//	svmbench -figure 3 -apps fft -json > fig3.json
//	svmbench -all -server http://127.0.0.1:7099
//	svmbench -hetero -apps lu,ocean-rowwise -csv hetero.csv
//	svmbench -all > results.txt
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"swsm"
	"swsm/internal/apps"
	"swsm/internal/cli"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// reads maps each output to the flags it reads.  A flag listed here is
// rejected when no requested output reads it (cli.CheckFlags); -json,
// -server and -csv have rules of their own (see parseArgs).  With
// -server, explore is named remote-explore: a remote search reads fewer
// flags.
var reads = map[string]string{
	"table4":         sized,
	"table5":         sized,
	"figure3":        sized + " apps",
	"figure4":        sized + " apps",
	"figure5":        sized + " apps",
	"trace":          sized + " apps trace-sample",
	"degradation":    sized + " apps drops fault-seed",
	"litmus":         sized + " litmus-seed litmus-drops",
	"hetero":         sized + " apps skews placements",
	"explore":        search + " parallel explore-store",
	"remote-explore": search,
}

const (
	sized  = "procs scale parallel"
	search = "scale explore-budget explore-seed explore-points explore-width explore-protocols explore-procs"
)

// errNoOutput is a command line that requests nothing.
var errNoOutput = errors.New("no output requested")

// request is one invocation: its flags, then what parseArgs derives
// from them.
type request struct {
	table, figure, procs, parallel, hotK, litmusN, explorePoints, exploreWidth int
	all, validate, json, degradation, hetero                                   bool
	sample, exploreBudget                                                      int64
	faultSeed, litmusSeed, exploreSeed                                         uint64
	appsCS, scaleName, csv, server, trace, dropsCS, litmusDrops, skews, places string
	cpuProf, memProf, exploreApp, exploreProtos, exploreProcs, exploreStore    string

	// outputs are the requested outputs in the order they run.
	outputs []string
	apps    []string
	scale   apps.Scale
	drops   []int64
	litmus  cli.Litmus
	ses     *harness.Session
	// client, when set, resolves every point and exploration on the
	// daemon; jobs collects its points' statuses for the closing lines.
	client *client.Client
	jobs   []*api.RunStatus
}

// parseArgs parses args into fs and checks them: every error is a usage
// error, found before anything runs.
func parseArgs(fs *flag.FlagSet, args []string) (*request, error) {
	r := &request{}
	fs.IntVar(&r.table, "table", 0, "regenerate table N (1-5)")
	fs.IntVar(&r.figure, "figure", 0, "regenerate figure N (3-5)")
	fs.BoolVar(&r.all, "all", false, "regenerate everything")
	fs.BoolVar(&r.validate, "validate", false, "run the simulator-validation microbenchmarks (Appendix)")
	fs.StringVar(&r.appsCS, "apps", "", "comma-separated application subset (default: all)")
	fs.IntVar(&r.procs, "procs", 16, "processor count")
	fs.StringVar(&r.scaleName, "scale", "base", "problem scale: tiny, base, large")
	fs.StringVar(&r.csv, "csv", "", "also write the data of the one requested figure or sweep as CSV to this file")
	fs.IntVar(&r.parallel, "parallel", 0, "max concurrent simulations (0 = one per CPU)")
	fs.BoolVar(&r.json, "json", false, "with -figure 3 or -explore alone: print machine-readable JSON instead of tables")
	fs.StringVar(&r.server, "server", "", "resolve every output but -trace and -validate through an svmd daemon at this URL")

	fs.StringVar(&r.trace, "trace", "", "write a multi-run Chrome trace of the figure-3 config ladder to this file")
	fs.Int64Var(&r.sample, "trace-sample", 0, "sample the breakdown every N cycles in traced runs")
	fs.IntVar(&r.hotK, "hot", 0, "print the top K hot pages/locks/barriers per traced run")

	fs.BoolVar(&r.degradation, "degradation", false, "run the slowdown-vs-drop-rate fault sweep")
	fs.StringVar(&r.dropsCS, "drops", "0.5,1,2,5", "comma-separated drop rates in percent for -degradation")
	fs.Uint64Var(&r.faultSeed, "fault-seed", 1, "seed for the -degradation fault plans")

	fs.IntVar(&r.litmusN, "litmus", 0, "run the litmus conformance sweep with N seeds across hlrc/lrc/sc")
	fs.Uint64Var(&r.litmusSeed, "litmus-seed", 1, "first seed of the -litmus sweep")
	fs.StringVar(&r.litmusDrops, "litmus-drops", "", "comma-separated drop percents for a faulted -litmus column (empty = clean fabric only)")

	fs.StringVar(&r.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	fs.StringVar(&r.memProf, "memprofile", "", "write a pprof heap profile at exit to this file")

	fs.StringVar(&r.exploreApp, "explore", "", "auto-tune APP: search the configuration space for the Pareto frontier of speedup vs. simulated cost")
	fs.Int64Var(&r.exploreBudget, "explore-budget", 0, "simulated-cycle budget for fresh (uncached) simulations; 0 runs the search to convergence")
	fs.Uint64Var(&r.exploreSeed, "explore-seed", 1, "seed of the deterministic search")
	fs.IntVar(&r.explorePoints, "explore-points", 0, "Latin-hypercube seed-set size (0 = default 16)")
	fs.IntVar(&r.exploreWidth, "explore-width", 0, "evaluation batch width (0 = default 8)")
	fs.StringVar(&r.exploreProtos, "explore-protocols", "", "comma-separated protocol subset to search (default hlrc,lrc,sc)")
	fs.StringVar(&r.exploreProcs, "explore-procs", "", "comma-separated processor counts to search (default 4,8,16,32)")
	fs.StringVar(&r.exploreStore, "explore-store", "", "local mode: persistent result store directory — re-running the same search against it costs zero new simulations")

	fs.BoolVar(&r.hetero, "hetero", false, "run the heterogeneity sweep: skew x placement x protocol with protocol-verdict flips")
	fs.StringVar(&r.skews, "skews", "uniform,cpu4,cpu8,accel4,accel8,link4,link8,mixed", "comma-separated skew presets for -hetero")
	fs.StringVar(&r.places, "placements", "rr,adaptive", "comma-separated placement policies for -hetero")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if r.table != 0 && (r.table < 1 || r.table > 5) {
		return nil, fmt.Errorf("no table %d (have 1-5)", r.table)
	}
	if r.figure != 0 && (r.figure < 3 || r.figure > 5) {
		return nil, fmt.Errorf("no figure %d (have 3-5)", r.figure)
	}
	for t := 1; t <= 5; t++ {
		if r.all || r.table == t {
			r.outputs = append(r.outputs, fmt.Sprintf("table%d", t))
		}
	}
	for f := 3; f <= 5; f++ {
		if r.all || r.figure == f {
			r.outputs = append(r.outputs, fmt.Sprintf("figure%d", f))
		}
	}
	for _, o := range []struct {
		name string
		on   bool
	}{
		{"trace", r.trace != "" || r.hotK > 0}, {"degradation", r.degradation}, {"litmus", r.litmusN > 0},
		{"hetero", r.hetero}, {"validate", r.validate}, {"explore", r.exploreApp != ""},
	} {
		if o.on {
			r.outputs = append(r.outputs, o.name)
		}
	}
	if len(r.outputs) == 0 {
		return nil, errNoOutput
	}

	names := r.outputs
	if r.server != "" {
		names = nil
		for _, out := range r.outputs {
			switch out {
			case "trace", "validate":
				return nil, fmt.Errorf("-server resolves every output but -trace and -validate; run %s locally", out)
			case "explore":
				out = "remote-explore"
			}
			names = append(names, out)
		}
	}
	requested := strings.Join(r.outputs, ", ")
	if r.json && requested != "figure3" && requested != "explore" {
		return nil, fmt.Errorf("-json prints exactly one of -figure 3 or -explore; requested %s", requested)
	}
	if r.csv != "" {
		n := 0
		for _, out := range r.outputs {
			if slices.Contains([]string{"figure3", "figure4", "figure5", "degradation", "litmus", "hetero", "explore"}, out) {
				n++
			}
		}
		if n != 1 || r.json {
			return nil, fmt.Errorf("-csv needs exactly one of -figure, -degradation, -litmus, -hetero or -explore, without -json; requested %s", requested)
		}
	}
	if err := cli.CheckFlags(cli.Set(fs), reads, "a request for "+strings.Join(names, ", "), names...); err != nil {
		return nil, err
	}

	var err error
	if r.scale, err = apps.ParseScale(r.scaleName); err != nil {
		return nil, err
	}
	r.apps = swsm.Apps()
	if r.appsCS != "" {
		r.apps = strings.Split(r.appsCS, ",")
	}
	for _, app := range r.apps {
		spec := harness.DefaultSpec(app, harness.HLRC)
		spec.Scale, spec.Procs = r.scale, r.procs
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	if r.drops, err = cli.PPMs("drops", r.dropsCS); err != nil {
		return nil, err
	}
	r.litmus = cli.Litmus{Seed: r.litmusSeed, N: r.litmusN, Procs: r.procs, Scale: r.scale, CSV: r.csv}
	if r.litmusDrops != "" {
		if r.litmus.DropPPMs, err = cli.PPMs("litmus-drops", r.litmusDrops); err != nil {
			return nil, err
		}
	}
	r.ses = swsm.NewSession(r.parallel)
	if r.server != "" {
		r.client = client.New(r.server)
	}
	return r, nil
}

func main() {
	r, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
		if errors.Is(err, errNoOutput) {
			flag.Usage()
		}
		os.Exit(2)
	}
	if r.cpuProf != "" {
		f, err := os.Create(r.cpuProf)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if r.memProf != "" {
		defer func() {
			f, err := os.Create(r.memProf)
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
	ctx := context.Background()
	for _, out := range r.outputs {
		if err := r.run(ctx, out); err != nil {
			fatalf("%s: %v", out, err)
		}
	}
}

// run produces one requested output.
func (r *request) run(ctx context.Context, out string) error {
	switch out {
	case "table1", "table2", "table3", "table4", "table5":
		n := int(out[len(out)-1] - '0')
		err := r.sweep(fmt.Sprintf("table %d", n), func() error { return r.printTable(ctx, n) })
		fmt.Println()
		return err
	case "figure3", "figure4", "figure5":
		n := int(out[len(out)-1] - '0')
		var t *harness.Table
		err := r.sweep(fmt.Sprintf("figure %d", n), func() (err error) {
			t, err = r.printFigure(ctx, n)
			return err
		})
		if err != nil || r.json {
			return err
		}
		fmt.Println()
		if r.csv == "" {
			return nil
		}
		return cli.WriteCSV(os.Stdout, r.csv, t)
	case "trace":
		return r.sweep("trace", func() error { return r.traced(ctx) })
	case "degradation":
		return r.sweep("degradation", func() error { return r.degradationSweep(ctx) })
	case "litmus":
		l := r.litmus
		title := fmt.Sprintf("Litmus conformance sweep: seeds %d..%d x {hlrc, lrc, sc}, %d procs (checker on)",
			l.Seed, l.Seed+uint64(l.N)-1, l.Procs)
		return r.sweep("litmus", func() error { return l.Run(ctx, os.Stdout, r.points, title) })
	case "hetero":
		return r.sweep("hetero", func() error { return r.heteroSweep(ctx) })
	case "validate":
		res, err := harness.ValidateAll()
		if err != nil {
			return err
		}
		fmt.Println("Simulator validation microbenchmarks (achievable parameters):")
		for _, v := range res {
			fmt.Printf("  %-24s %8d cycles (%.1f us @200MHz)\n", v.Name, v.Cycles, float64(v.Cycles)/200)
		}
		return nil
	case "explore":
		return r.runExplore(ctx)
	}
	return fmt.Errorf("unknown output %q", out)
}

// points resolves specs to their points through the session, or on
// the daemon with -server: the one difference between a local and a
// remote output.
func (r *request) points(ctx context.Context, specs []harness.RunSpec) ([]harness.Point, error) {
	if r.client == nil {
		return r.ses.Points(ctx, specs)
	}
	points, jobs, err := r.client.Points(ctx, specs, r.parallel)
	r.jobs = append(r.jobs, jobs...)
	return points, err
}

// sweep runs f and prints its one-line summary: the wall clock plus the
// session's memo traffic, or with -server the daemon's store hits.  A
// static table that runs nothing prints none, and -json prints none.
func (r *request) sweep(label string, f func() error) error {
	before, jobs := r.ses.Stats(), len(r.jobs)
	start := time.Now()
	if err := f(); err != nil || r.json {
		return err
	}
	wall := time.Since(start).Seconds()
	if r.client != nil {
		points, cached := r.jobs[jobs:], 0
		if len(points) == 0 {
			return nil
		}
		for _, st := range points {
			if st.Cached {
				cached++
			}
		}
		fmt.Printf("[%s: %.2fs wall, svmd %s, %d points, %d served from the daemon's result store]\n",
			label, wall, r.server, len(points), cached)
		return nil
	}
	st := r.ses.Stats()
	runs := st.Runs - before.Runs
	hits := (st.Hits + st.Waits) - (before.Hits + before.Waits)
	if runs+hits == 0 {
		return nil
	}
	fmt.Printf("[%s: %.2fs wall, parallel=%d, %d runs, %d cache hits]\n",
		label, wall, r.ses.Parallelism(), runs, hits)
	return nil
}

// figureRow labels one cell of the Figure-3 grid for machine-readable
// output: "ideal" or "<protocol>/<config>" plus the full result row.
type figureRow struct {
	App   string      `json:"app"`
	Label string      `json:"label"`
	Row   swsm.RunRow `json:"row"`
}

// figure3 resolves the Figure-3 grid of every selected app, with the
// baselines its speedups divide by, in one batch and prints it as JSON
// rows or as the figure, returning its table.
func (r *request) figure3(ctx context.Context) (*harness.Table, error) {
	var (
		specs  []harness.RunSpec
		labels [][]string
	)
	for _, app := range r.apps {
		ss, ls, err := harness.Figure3Specs(app, r.scale, r.procs, harness.Figure3Configs)
		if err != nil {
			return nil, err
		}
		specs = append(append(specs, ss...), harness.BaselineSpec(app, r.scale, true))
		labels = append(labels, ls)
	}
	points, err := r.points(ctx, specs)
	if err != nil {
		return nil, err
	}
	rows, err := harness.Rows(points)
	if err != nil {
		return nil, err
	}
	var (
		frows []figureRow
		bars  []*harness.AppBar
	)
	for i, app := range r.apps {
		n := len(labels[i])
		for j, l := range labels[i] {
			frows = append(frows, figureRow{App: app, Label: l, Row: rows[j]})
		}
		bars = append(bars, harness.Figure3Bar(app, labels[i], rows[:n]))
		rows = rows[n+1:] // past the app's baseline
	}
	if r.json {
		return nil, printJSON(frows)
	}
	fmt.Println("Figure 3: speedups across layer configurations")
	for _, bar := range bars {
		fmt.Print(swsm.FormatFigure3(bar, swsm.Figure3Configs))
		fmt.Print(harness.RenderFigure3(bar, swsm.Figure3Configs))
	}
	return harness.Figure3Table(bars, swsm.Figure3Configs), nil
}

// printFigure prints figure n for the selected apps and returns its
// data points as a table.
func (r *request) printFigure(ctx context.Context, n int) (*harness.Table, error) {
	switch n {
	case 3:
		return r.figure3(ctx)
	case 4:
		fmt.Println("Figure 4: execution time breakdowns (avg cycles/proc)")
		var all []harness.Figure4Row
		for _, app := range r.apps {
			rows, err := harness.Figure4(ctx, r.points, app, r.scale, r.procs, harness.Figure3Configs)
			if err != nil {
				return nil, err
			}
			fmt.Println(app)
			fmt.Print(swsm.FormatFigure4(rows))
			fmt.Print(harness.RenderFigure4(rows))
			all = append(all, rows...)
		}
		return harness.Figure4Table(all), nil
	default:
		fmt.Println("Figure 5: one communication parameter varied at a time (speedups)")
		var all [][]harness.Figure5Point
		for _, app := range r.apps {
			pts, err := harness.Figure5(ctx, r.points, app, r.scale, r.procs)
			if err != nil {
				return nil, err
			}
			fmt.Println(app)
			fmt.Print(swsm.FormatFigure5(pts))
			all = append(all, pts)
		}
		return harness.Figure5Table(r.apps, all), nil
	}
}

// printTable prints table n.
func (r *request) printTable(ctx context.Context, n int) error {
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
		rows, err := harness.Table4(ctx, r.points, swsm.Apps(), r.scale, r.procs)
		if err != nil {
			return err
		}
		fmt.Print(swsm.FormatTable4(rows))
	default:
		fmt.Println("Table 5: per-application layer-importance summary (HLRC)")
		rows, err := harness.Table5(ctx, r.points, swsm.Apps(), r.scale, r.procs)
		if err != nil {
			return err
		}
		fmt.Print(swsm.FormatTable5(rows))
	}
	return nil
}

// heteroSweep sweeps machine skew x placement x protocol and prints the
// speedup grid plus the protocol-verdict flips — the configurations
// where the protocol that wins on the paper's uniform cluster loses
// under skew.
func (r *request) heteroSweep(ctx context.Context) error {
	protos := []swsm.ProtocolKind{swsm.HLRC, swsm.SC}
	points, err := harness.HeterogeneitySweep(ctx, r.points, r.apps, protos, r.scale, r.procs, splitList(r.skews), splitList(r.places))
	if err != nil {
		return err
	}
	fmt.Printf("Heterogeneity sweep: skew x placement x {hlrc, sc}, %d procs\n", r.procs)
	fmt.Print(swsm.FormatHeterogeneity(points))
	if r.csv == "" {
		return nil
	}
	return cli.WriteCSV(os.Stdout, r.csv, harness.HeterogeneityTable(points))
}

// degradationSweep sweeps drop rate x app x protocol, printing the
// slowdown table (and optionally its CSV).  Each faulted run
// re-verifies the application's answer, so completing the sweep
// certifies correctness under every injected fault rate.
func (r *request) degradationSweep(ctx context.Context) error {
	protos := []swsm.ProtocolKind{swsm.HLRC, swsm.SC}
	points, err := harness.DegradationSweep(ctx, r.points, r.apps, protos, r.scale, r.procs, r.faultSeed, r.drops)
	if err != nil {
		return err
	}
	fmt.Printf("Degradation sweep: slowdown vs drop rate (seed %d, all answers verified)\n", r.faultSeed)
	fmt.Print(swsm.FormatDegradation(points))
	if r.csv == "" {
		return nil
	}
	return cli.WriteCSV(os.Stdout, r.csv, harness.DegradationTable(points))
}

// traced re-runs the figure-3 configuration ladder for each selected
// application with tracing enabled and writes every run into one
// multi-run Chrome trace (one Perfetto process per app/config pair).
// Traced specs are memoized separately from their untraced twins, so
// this never contaminates figure results.
func (r *request) traced(ctx context.Context) error {
	var runs []swsm.TraceRun
	for _, app := range r.apps {
		specs, labels, err := swsm.TracedConfigSpecs(app, r.scale, r.procs, swsm.Figure3Configs, r.sample)
		if err != nil {
			return err
		}
		results, errs := r.ses.RunEach(ctx, specs)
		if err := cmp.Or(errs...); err != nil {
			return err
		}
		for i := range labels {
			labels[i] = app + "/" + labels[i]
		}
		runs = append(runs, swsm.TraceRuns(labels, results)...)
	}
	if r.hotK > 0 {
		for _, run := range runs {
			if run.Data.Hot == nil {
				continue
			}
			fmt.Printf("%s hot objects (top %d):\n%s", run.Label, r.hotK, harness.FormatHotObjects(run.Data.Hot, r.hotK))
		}
	}
	if r.trace != "" {
		err := cli.WriteFile(r.trace, func(w io.Writer) error { return swsm.WriteChromeTraceMulti(w, runs) })
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d traced runs)\n", r.trace, len(runs))
	}
	return nil
}

// printJSON prints v to stdout as indented JSON.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "svmbench: "+format+"\n", args...)
	os.Exit(1)
}
