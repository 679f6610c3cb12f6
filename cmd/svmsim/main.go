// Command svmsim runs one application on the simulated software
// shared-memory cluster and reports speedup, the execution-time
// breakdown and the protocol event counters.
//
// Examples:
//
//	svmsim -app fft -protocol hlrc
//	svmsim -app barnes -protocol sc -comm B -costs B -procs 8
//	svmsim -app radix -protocol hlrc -comm W -scale large
//	svmsim -app fft -protocol hlrc -check
//	svmsim -app fft -protocol hlrc -json
//	svmsim -app fft -protocol hlrc -server http://127.0.0.1:7099
//	svmsim -litmus 32 -litmus-seed 1 -procs 4 -scale tiny
//	svmsim -app ocean-rowwise -hetero cpu4 -placement adaptive
//	svmsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"swsm"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
	"swsm/internal/stats"
)

func main() {
	var (
		app      = flag.String("app", "fft", "application name (see -list)")
		protocol = flag.String("protocol", "hlrc", "protocol: hlrc, sc or ideal")
		commSet  = flag.String("comm", "A", "communication parameter set: A, B, H, W, B+")
		costSet  = flag.String("costs", "O", "protocol cost set: O, H, B")
		procs    = flag.Int("procs", 16, "processor count")
		scale    = flag.String("scale", "base", "problem scale: tiny, base, large")
		scBlock  = flag.Int("scblock", 0, "override SC block granularity (bytes)")
		list     = flag.Bool("list", false, "list applications and exit")
		perProc  = flag.Bool("perproc", false, "print the per-processor breakdown table")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		jsonOut  = flag.Bool("json", false, "print the result as one machine-readable JSON row")
		server   = flag.String("server", "", "execute on a running svmd daemon at this URL instead of in-process")

		traceOut    = flag.String("trace", "", "write Chrome trace_event JSON (Perfetto-loadable) to this file")
		traceJSONL  = flag.String("trace-jsonl", "", "write the event trace as compact JSONL to this file")
		traceSample = flag.Int64("trace-sample", 0, "sample the breakdown every N cycles (with tracing)")
		timelineOut = flag.String("timeline", "", "write the sampled breakdown timeline CSV to this file")
		hotK        = flag.Int("hot", 0, "print the top K hot pages/locks/barriers (requires tracing)")
		stitchedOut = flag.String("stitched-trace", "", "with -server: save the job's stitched service+sim Perfetto timeline to this file")

		check      = flag.Bool("check", false, "run the consistency conformance checker over the run")
		litmusN    = flag.Int("litmus", 0, "run a litmus ladder of N seeds across hlrc/lrc/sc instead of -app")
		litmusSeed = flag.Uint64("litmus-seed", 1, "first seed of the -litmus ladder")

		faultSeed = flag.Uint64("fault-seed", 1, "seed for deterministic fault injection")
		dropPct   = flag.Float64("drop", 0, "message drop rate in percent (enables the reliable transport)")
		dupPct    = flag.Float64("dup", 0, "message duplication rate in percent")
		delayPct  = flag.Float64("delay", 0, "message extra-delay rate in percent")
		delayMax  = flag.Int64("delay-max", 0, "max injected extra delay in cycles (default 10000)")
		pauseSpec = flag.String("pause", "", "periodic node pause windows as EVERY:FOR[:NODEMASK] cycles")
		reliable  = flag.Bool("reliable", false, "route through the reliable transport even with no faults")

		heteroSkew = flag.String("hetero", "uniform", "heterogeneity preset: "+strings.Join(swsm.HeteroPresetNames(), ", "))
		placement  = flag.String("placement", "app", "page-home placement policy: "+strings.Join(swsm.HeteroPlacementNames(), ", "))
	)
	flag.Parse()

	if *list {
		for _, name := range swsm.Apps() {
			info, _ := swsm.AppLookup(name)
			kind := "original"
			if info.RestructuredOf != "" {
				kind = "restructured " + info.RestructuredOf
			}
			fmt.Printf("%-16s %-30s %s\n", name, info.BaseSize, kind)
		}
		return
	}

	var sc swsm.Scale
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
	fs := swsm.FaultSpec{
		Seed:     *faultSeed,
		DropPPM:  pctToPPM(*dropPct, "drop"),
		DupPPM:   pctToPPM(*dupPct, "dup"),
		DelayPPM: pctToPPM(*delayPct, "delay"),
		DelayMax: *delayMax,
		Reliable: *reliable,
	}
	if *pauseSpec != "" {
		every, dur, mask, err := parsePause(*pauseSpec)
		if err != nil {
			fatalf("%v", err)
		}
		fs.PauseEvery, fs.PauseFor, fs.PauseMask = every, dur, mask
	}
	if err := fs.Validate(); err != nil {
		fatalf("%v", err)
	}

	if *litmusN > 0 {
		if *server != "" {
			fatalf("-litmus runs locally (the ladder needs in-process shrinking); drop -server")
		}
		runLitmus(*parallel, *litmusSeed, *litmusN, *procs, sc, fs)
		return
	}

	spec := swsm.DefaultSpec(*app, swsm.ProtocolKind(*protocol))
	spec.Procs = *procs
	spec.SCBlockOverride = *scBlock
	spec.Scale = sc
	spec.Check = *check
	lc := swsm.LayerConfig{Comm: *commSet, Costs: *costSet}
	if err := lc.Apply(&spec); err != nil {
		fatalf("%v", err)
	}
	spec.Fault = fs
	hs, err := swsm.ComposeHeteroSpec(*heteroSkew, *placement)
	if err != nil {
		fatalf("%v", err)
	}
	spec.Hetero = hs

	tracing := *traceOut != "" || *traceJSONL != "" || *timelineOut != "" || *hotK > 0
	if tracing {
		spec.Trace = true
		spec.TraceSample = *traceSample
		if *timelineOut != "" && *traceSample <= 0 {
			fatalf("-timeline needs -trace-sample N")
		}
	}

	if *server != "" {
		if tracing {
			fatalf("trace capture is an in-process artifact; drop -server to trace (or use -stitched-trace)")
		}
		if *perProc {
			fatalf("-perproc needs in-process statistics; drop -server")
		}
		runRemote(*server, spec, *jsonOut, *stitchedOut)
		return
	}
	if *stitchedOut != "" {
		fatalf("-stitched-trace fetches a daemon-side timeline; it needs -server (use -trace locally)")
	}

	// The session runs the spec and its sequential baseline concurrently
	// (two independent simulations) and memoizes both.
	ses := swsm.NewSession(*parallel)
	start := time.Now()
	speedup, res, err := ses.Speedup(spec)
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start)
	seq, err := ses.SequentialBaseline(*app, spec.Scale, spec.CacheEnabled)
	if err != nil {
		fatalf("sequential baseline: %v", err)
	}

	if *jsonOut {
		row := swsm.NewRunRow(res).WithSpeedup(seq)
		if err := swsm.WriteRunRowJSON(os.Stdout, row); err != nil {
			fatalf("%v", err)
		}
		if tracing {
			// Keep stdout pure JSON; file notices and hot-object reports go
			// to stderr.
			if err := writeTraceOutputs(os.Stderr, res, *traceOut, *traceJSONL, *timelineOut, *hotK); err != nil {
				fatalf("%v", err)
			}
		}
		return
	}

	fmt.Printf("%s on %s, %d procs, config %s (scale %s)\n",
		*app, *protocol, *procs, lc.Label(), *scale)
	if spec.Fault.Enabled() {
		fmt.Printf("  fault plan: seed %d, drop %.2f%%, dup %.2f%%, delay %.2f%%, pause %d/%d\n",
			spec.Fault.Seed, *dropPct, *dupPct, *delayPct,
			spec.Fault.PauseFor, spec.Fault.PauseEvery)
	}
	if spec.Hetero.Enabled() {
		fmt.Printf("  hetero: skew %s, placement %s\n", *heteroSkew, *placement)
		if spec.Hetero.Placement == swsm.PlaceAdaptive {
			fmt.Printf("    pages rehomed %d, demoted %d\n",
				res.Stats.TotalCount(stats.PagesRehomed),
				res.Stats.TotalCount(stats.PagesDemoted))
		}
	}
	fmt.Printf("  cycles:   %d (sequential %d)\n", res.Cycles, seq)
	fmt.Printf("  speedup:  %.2f\n", speedup)
	fmt.Printf("  breakdown (avg cycles/proc): %s\n", res.Stats.BreakdownString())
	total, diffPct, handlerPct := res.Stats.ProtocolPercent()
	fmt.Printf("  protocol activity: %.1f%% of time (diff %.1f%%, handler %.1f%%)\n",
		total, diffPct, handlerPct)
	fmt.Printf("  counters: %s\n", res.Stats.CounterString())
	if res.Consistency != nil {
		fmt.Printf("  consistency: %s\n", res.Consistency)
	}
	fmt.Printf("  imbalance: data %.2fx, lock %.2fx, barrier %.2fx\n",
		res.Stats.Imbalance(stats.DataWait),
		res.Stats.Imbalance(stats.LockWait),
		res.Stats.Imbalance(stats.BarrierWait))
	if *perProc {
		fmt.Println("  per-processor breakdown:")
		fmt.Print(harness.PerProcBreakdown(res))
	}
	if tracing {
		if err := writeTraceOutputs(os.Stdout, res, *traceOut, *traceJSONL, *timelineOut, *hotK); err != nil {
			fatalf("%v", err)
		}
	}
	st := ses.Stats()
	fmt.Printf("[%.2fs wall, parallel=%d, %d runs, %d cache hits]\n",
		elapsed.Seconds(), ses.Parallelism(), st.Runs, st.Hits+st.Waits)
}

// runLitmus executes the litmus ladder: n seeds x {hlrc, lrc, sc} with
// the conformance checker on; with -drop set, a faulted column runs next
// to the clean one.  Every violation is delta-debugged to a minimal
// reproducer and the command exits nonzero.
func runLitmus(parallel int, baseSeed uint64, n, procs int, scale swsm.Scale, fs swsm.FaultSpec) {
	protos := []swsm.ProtocolKind{swsm.HLRC, swsm.LRC, swsm.SC}
	var drops []int64
	if fs.DropPPM > 0 {
		drops = []int64{0, fs.DropPPM}
	}
	ses := swsm.NewSession(parallel)
	start := time.Now()
	points, err := ses.LitmusSweep(baseSeed, n, protos, scale, procs, drops)
	if err != nil {
		fatalf("litmus sweep: %v", err)
	}
	fmt.Printf("Litmus ladder: seeds %d..%d x {hlrc, lrc, sc}, %d procs\n",
		baseSeed, baseSeed+uint64(n)-1, procs)
	fmt.Print(swsm.FormatLitmus(points))
	bad := 0
	for _, p := range points {
		if p.Conforms() {
			continue
		}
		bad++
		spec := swsm.LitmusSpec(p.Seed, p.Proto, scale, procs)
		if p.DropPPM > 0 {
			spec = swsm.FaultedSpec(spec, p.Seed, p.DropPPM)
		}
		prog := swsm.LitmusGenerate(p.Seed, procs, scale)
		if min := swsm.ShrinkLitmus(spec, prog, nil); min != nil {
			fmt.Printf("minimal reproducer for seed %d on %s (%d of %d ops):\n%s\n",
				p.Seed, p.Proto, min.Ops(), prog.Ops(), min)
		}
	}
	st := ses.Stats()
	fmt.Printf("[%.2fs wall, parallel=%d, %d runs, %d cache hits]\n",
		time.Since(start).Seconds(), ses.Parallelism(), st.Runs, st.Hits+st.Waits)
	if bad > 0 {
		fatalf("%d of %d litmus points violated their consistency model", bad, len(points))
	}
	fmt.Printf("all %d points conform\n", len(points))
}

// runRemote executes the spec on an svmd daemon: the service resolves
// it through its persistent store and memoized scheduler (always with
// the sequential-baseline speedup) and returns the same RunRow the
// local -json path prints.  With stitchedPath the job's stitched
// service+sim Perfetto timeline is fetched afterwards.
func runRemote(baseURL string, spec swsm.RunSpec, jsonOut bool, stitchedPath string) {
	start := time.Now()
	c := client.New(baseURL)
	st, err := c.Run(context.Background(), api.RunRequest{Spec: spec, Speedup: true})
	if err != nil {
		fatalf("%v", err)
	}
	if st.State != api.StateDone || st.Row == nil {
		fatalf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if stitchedPath != "" {
		if err := writeFile(stitchedPath, func(w *os.File) error {
			return c.Trace(context.Background(), st.ID, w)
		}); err != nil {
			fatalf("stitched trace: %v", err)
		}
		// Keep stdout pure JSON under -json; notices go to stderr.
		fmt.Fprintf(os.Stderr, "  stitched-trace: %s (job %s; load in Perfetto)\n", stitchedPath, st.ID)
	}
	row := *st.Row
	if jsonOut {
		if err := swsm.WriteRunRowJSON(os.Stdout, row); err != nil {
			fatalf("%v", err)
		}
		return
	}
	source := "simulated remotely"
	if st.Cached {
		source = "served from result store"
	}
	fmt.Printf("%s on %s, %d procs (svmd %s, %s)\n",
		spec.App, spec.Protocol, spec.Procs, baseURL, source)
	fmt.Printf("  cycles:   %d (sequential %d)\n", row.Cycles, row.SeqCycles)
	fmt.Printf("  speedup:  %.2f\n", row.Speedup)
	fmt.Printf("  breakdown (avg cycles/proc):")
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Printf(" %s %.0f", c, row.Breakdown[c.String()])
	}
	fmt.Println()
	fmt.Printf("  protocol activity: %.1f%% of time (diff %.1f%%, handler %.1f%%)\n",
		row.ProtocolPct.Total, row.ProtocolPct.Diff, row.ProtocolPct.Handler)
	if row.Consistency != nil {
		fmt.Printf("  consistency: %s\n", row.Consistency)
	}
	fmt.Printf("[%.2fs wall, job %s, key %s]\n",
		time.Since(start).Seconds(), st.ID, row.Key)
}

// writeTraceOutputs serializes a traced run's observability products:
// Chrome trace, JSONL trace, timeline CSV, and a hot-object report on
// the notice writer.
func writeTraceOutputs(notices io.Writer, res *swsm.Result, chromePath, jsonlPath, timelinePath string, hotK int) error {
	d := res.Trace
	if d == nil {
		return fmt.Errorf("run carried no trace data")
	}
	label := fmt.Sprintf("%s/%s", res.Spec.App, res.Spec.Protocol)
	if chromePath != "" {
		if err := writeFile(chromePath, func(w *os.File) error {
			return swsm.WriteChromeTrace(w, label, d)
		}); err != nil {
			return err
		}
		fmt.Fprintf(notices, "  trace: %s (%d events; load in Perfetto)\n", chromePath, len(d.Events))
	}
	if jsonlPath != "" {
		if err := writeFile(jsonlPath, func(w *os.File) error {
			return swsm.WriteJSONLTrace(w, []swsm.TraceRun{{Label: label, Data: d}})
		}); err != nil {
			return err
		}
		fmt.Fprintf(notices, "  trace-jsonl: %s\n", jsonlPath)
	}
	if timelinePath != "" {
		if err := writeFile(timelinePath, func(w *os.File) error {
			return swsm.WriteBreakdownTimelineCSV(w, d.Samples)
		}); err != nil {
			return err
		}
		fmt.Fprintf(notices, "  timeline: %s (%d samples)\n", timelinePath, len(d.Samples))
	}
	if hotK > 0 && d.Hot != nil {
		fmt.Fprintf(notices, "%s hot objects (top %d):\n%s", label, hotK, harness.FormatHotObjects(d.Hot, hotK))
	}
	return nil
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pctToPPM converts a percentage flag to the fault plane's fixed-point
// parts-per-million rate.
func pctToPPM(pct float64, name string) int64 {
	if pct < 0 || pct > 100 {
		fatalf("-%s %.2f outside [0, 100]", name, pct)
	}
	return int64(pct * 1e4)
}

// parsePause decodes EVERY:FOR[:NODEMASK] (cycles, cycles, hex or
// decimal bitmask of pausing nodes; omitted mask = all nodes).
func parsePause(s string) (every, dur int64, mask uint64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("-pause wants EVERY:FOR[:NODEMASK], got %q", s)
	}
	if every, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("-pause period: %v", err)
	}
	if dur, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("-pause duration: %v", err)
	}
	if len(parts) == 3 {
		if mask, err = strconv.ParseUint(parts[2], 0, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("-pause node mask: %v", err)
		}
	}
	return every, dur, mask, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "svmsim: "+format+"\n", args...)
	os.Exit(1)
}
