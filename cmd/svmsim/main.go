// Command svmsim runs one application on the simulated software
// shared-memory cluster and reports speedup, the execution-time
// breakdown and the protocol event counters.  A run prints the same
// report in process and on an svmd daemon (-server); a flag that the
// requested output does not read is rejected (exit 2).
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
//	svmsim -litmus 4 -procs 4 -server http://127.0.0.1:7099
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
	"swsm/internal/apps"
	"swsm/internal/cli"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
	"swsm/internal/stats"
)

// reads maps each output to the flags it reads; a flag listed here is
// rejected when the selected output does not read it (cli.CheckFlags).
// A run prints a text report or a JSON row, in process or on a daemon;
// any trace product also selects trace, and only an in-process run
// reads the products themselves.  A litmus ladder runs either way.
var reads = map[string]string{
	"report":        run + " parallel perproc trace trace-jsonl timeline hot",
	"json":          run + " json parallel trace trace-jsonl timeline hot",
	"remote-report": run + " server stitched-trace",
	"remote-json":   run + " json server stitched-trace",
	"litmus":        "litmus litmus-seed procs scale drop parallel server",
	"trace":         "trace-sample",
}

// run lists the flags that build a run's spec.
const run = "app protocol comm costs procs scale scblock check fault-seed drop dup delay delay-max pause reliable hetero placement"

// options is one invocation: its flags, then what parseArgs derives
// from them.
type options struct {
	app, protocol, comm, costs, scale, server, stitched, pause, hetero, placement string
	chrome, jsonl, timeline                                                       string
	procs, scBlock, parallel, hotK, litmusN                                       int
	list, perProc, json, check, reliable                                          bool
	sample, delayMax                                                              int64
	litmusSeed, faultSeed                                                         uint64
	drop, dup, delay                                                              float64

	// outputs are the selected outputs: list, litmus, or one run
	// output, plus trace when a trace product is requested.
	outputs []string
	litmus  cli.Litmus
	spec    harness.RunSpec
	config  string
	ses     *harness.Session
	// client, when set, resolves every point on the daemon; jobs
	// collects its jobs' statuses for the closing line.
	client *client.Client
	jobs   []*api.RunStatus
}

// tracing reports whether a trace product is requested.
func (o *options) tracing() bool {
	return o.chrome != "" || o.jsonl != "" || o.timeline != "" || o.hotK > 0
}

// parseArgs parses args into fs and checks them: every error is a usage
// error, found before anything runs.
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.app, "app", "fft", "application name (see -list)")
	fs.StringVar(&o.protocol, "protocol", "hlrc", "protocol: hlrc, lrc, sc or ideal")
	fs.StringVar(&o.comm, "comm", "A", "communication parameter set: A, B, H, W, B+")
	fs.StringVar(&o.costs, "costs", "O", "protocol cost set: O, H, B")
	fs.IntVar(&o.procs, "procs", 16, "processor count")
	fs.StringVar(&o.scale, "scale", "base", "problem scale: tiny, base, large")
	fs.IntVar(&o.scBlock, "scblock", 0, "override SC block granularity (bytes)")
	fs.BoolVar(&o.list, "list", false, "list applications and exit")
	fs.BoolVar(&o.perProc, "perproc", false, "print the per-processor breakdown table")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrent simulations (0 = one per CPU)")
	fs.BoolVar(&o.json, "json", false, "print the result as one machine-readable JSON row")
	fs.StringVar(&o.server, "server", "", "execute on a running svmd daemon at this URL instead of in-process")

	fs.StringVar(&o.chrome, "trace", "", "write Chrome trace_event JSON (Perfetto-loadable) to this file")
	fs.StringVar(&o.jsonl, "trace-jsonl", "", "write the event trace as compact JSONL to this file")
	fs.Int64Var(&o.sample, "trace-sample", 0, "sample the breakdown every N cycles (with tracing)")
	fs.StringVar(&o.timeline, "timeline", "", "write the sampled breakdown timeline CSV to this file")
	fs.IntVar(&o.hotK, "hot", 0, "print the top K hot pages/locks/barriers (requires tracing)")
	fs.StringVar(&o.stitched, "stitched-trace", "", "with -server: save the job's stitched service+sim Perfetto timeline to this file")

	fs.BoolVar(&o.check, "check", false, "run the consistency conformance checker over the run")
	fs.IntVar(&o.litmusN, "litmus", 0, "run a litmus ladder of N seeds across hlrc/lrc/sc instead of -app")
	fs.Uint64Var(&o.litmusSeed, "litmus-seed", 1, "first seed of the -litmus ladder")

	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed for deterministic fault injection")
	fs.Float64Var(&o.drop, "drop", 0, "message drop rate in percent (enables the reliable transport)")
	fs.Float64Var(&o.dup, "dup", 0, "message duplication rate in percent")
	fs.Float64Var(&o.delay, "delay", 0, "message extra-delay rate in percent")
	fs.Int64Var(&o.delayMax, "delay-max", 0, "max injected extra delay in cycles (default 10000)")
	fs.StringVar(&o.pause, "pause", "", "periodic node pause windows as EVERY:FOR[:NODEMASK] cycles")
	fs.BoolVar(&o.reliable, "reliable", false, "route through the reliable transport even with no faults")

	fs.StringVar(&o.hetero, "hetero", "uniform", "heterogeneity preset: "+strings.Join(swsm.HeteroPresetNames(), ", "))
	fs.StringVar(&o.placement, "placement", "app", "page-home placement policy: "+strings.Join(swsm.HeteroPlacementNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	out := "report"
	if o.json {
		out = "json"
	}
	if o.server != "" {
		out = "remote-" + out
	}
	switch {
	case o.list:
		out = "list"
	case o.litmusN > 0:
		out = "litmus"
	}
	o.outputs = []string{out}
	if o.tracing() {
		o.outputs = append(o.outputs, "trace")
	}
	what := "a request for " + strings.Join(o.outputs, " and ")
	if err := cli.CheckFlags(cli.Set(fs), reads, what, o.outputs...); err != nil || o.list {
		return o, err
	}

	sc, err := apps.ParseScale(o.scale)
	if err != nil {
		return nil, err
	}
	fp := swsm.FaultSpec{Seed: o.faultSeed, DelayMax: o.delayMax, Reliable: o.reliable}
	if fp.DropPPM, err = cli.PPM("drop", o.drop); err != nil {
		return nil, err
	}
	if o.litmusN > 0 {
		o.litmus = cli.Litmus{Seed: o.litmusSeed, N: o.litmusN, Procs: o.procs, Scale: sc}
		if fp.DropPPM > 0 {
			o.litmus.DropPPMs = []int64{0, fp.DropPPM}
		}
		return o, harness.LitmusSpec(o.litmusSeed, harness.HLRC, sc, o.procs).Validate()
	}
	if fp.DupPPM, err = cli.PPM("dup", o.dup); err != nil {
		return nil, err
	}
	if fp.DelayPPM, err = cli.PPM("delay", o.delay); err != nil {
		return nil, err
	}
	if o.pause != "" {
		if fp.PauseEvery, fp.PauseFor, fp.PauseMask, err = parsePause(o.pause); err != nil {
			return nil, err
		}
	}
	spec := swsm.DefaultSpec(o.app, swsm.ProtocolKind(o.protocol))
	spec.Procs = o.procs
	spec.SCBlockOverride = o.scBlock
	spec.Scale = sc
	spec.Check = o.check
	lc := swsm.LayerConfig{Comm: o.comm, Costs: o.costs}
	if err := lc.Apply(&spec); err != nil {
		return nil, err
	}
	spec.Fault = fp
	if spec.Hetero, err = swsm.ComposeHeteroSpec(o.hetero, o.placement); err != nil {
		return nil, err
	}
	if o.tracing() {
		spec.Trace = true
		spec.TraceSample = o.sample
		if o.timeline != "" && o.sample <= 0 {
			return nil, fmt.Errorf("-timeline needs -trace-sample N")
		}
	}
	o.spec, o.config = spec, lc.Label()
	return o, spec.Validate()
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmsim: %v\n", err)
		os.Exit(2)
	}
	if o.list {
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
	o.ses = swsm.NewSession(o.parallel)
	if o.server != "" {
		o.client = client.New(o.server)
	}
	start := time.Now()
	ctx := context.Background()
	if l := o.litmus; o.litmusN > 0 {
		err = l.Run(ctx, os.Stdout, o.points, fmt.Sprintf("Litmus ladder: seeds %d..%d x {hlrc, lrc, sc}, %d procs", l.Seed, l.Seed+uint64(l.N)-1, l.Procs))
	} else {
		err = o.runOne(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmsim: %v\n", err)
		os.Exit(1)
	}
	if !o.json {
		fmt.Printf("[%.2fs wall, %s]\n", time.Since(start).Seconds(), o.source())
	}
}

// points resolves specs to their points through the session, or on
// the daemon with -server.
func (o *options) points(ctx context.Context, specs []harness.RunSpec) ([]harness.Point, error) {
	if o.client == nil {
		return o.ses.Points(ctx, specs)
	}
	points, jobs, err := o.client.Points(ctx, specs, o.parallel)
	o.jobs = append(o.jobs, jobs...)
	return points, err
}

// source names where the points came from, for the closing line: the
// session's memo traffic, the daemon's job for a run, or the daemon's
// store hits for a ladder.
func (o *options) source() string {
	if o.client == nil {
		st := o.ses.Stats()
		return fmt.Sprintf("parallel=%d, %d runs, %d cache hits", o.ses.Parallelism(), st.Runs, st.Hits+st.Waits)
	}
	if job := o.jobs[0]; o.litmusN == 0 {
		src := "simulated remotely"
		if job.Cached {
			src = "served from result store"
		}
		return fmt.Sprintf("svmd %s, %s, job %s, key %s", o.server, src, job.ID, job.Key)
	}
	cached := 0
	for _, st := range o.jobs {
		if st.Cached {
			cached++
		}
	}
	return fmt.Sprintf("svmd %s, %d jobs, %d served from the daemon's result store", o.server, len(o.jobs), cached)
}

// runOne resolves the spec and the sequential baseline its speedup
// divides by, and prints the spec's row as the text report or the JSON
// row.  With -server it first saves the job's stitched timeline when
// asked; in process it then prints the per-processor table and writes
// the trace products.
func (o *options) runOne(ctx context.Context) error {
	points, err := o.points(ctx, []harness.RunSpec{o.spec, harness.BaselineSpec(o.spec.App, o.spec.Scale, o.spec.CacheEnabled)})
	if err != nil {
		return err
	}
	rows, err := harness.Rows(points)
	if err != nil {
		return err
	}
	if o.stitched != "" {
		job := o.jobs[0]
		if err := cli.WriteFile(o.stitched, func(w io.Writer) error { return o.client.Trace(ctx, job.ID, w) }); err != nil {
			return fmt.Errorf("stitched trace: %v", err)
		}
		// Keep stdout pure JSON under -json; notices go to stderr.
		fmt.Fprintf(os.Stderr, "  stitched-trace: %s (job %s; load in Perfetto)\n", o.stitched, job.ID)
	}
	if err := o.print(rows[0]); err != nil || !o.perProc && !o.tracing() {
		return err
	}
	res, err := o.ses.Run(o.spec)
	if err != nil {
		return err
	}
	if o.perProc {
		fmt.Println("  per-processor breakdown:")
		fmt.Print(harness.PerProcBreakdown(res))
	}
	if !o.tracing() {
		return nil
	}
	// Keep stdout pure JSON under -json; file notices and hot-object
	// reports go to stderr.
	notices := io.Writer(os.Stdout)
	if o.json {
		notices = os.Stderr
	}
	return o.writeTrace(notices, res)
}

// print prints row as the JSON row or the text report.
func (o *options) print(row harness.RunRow) error {
	if o.json {
		return swsm.WriteRunRowJSON(os.Stdout, row)
	}
	_, err := fmt.Print(harness.FormatRunRow(row, o.config, o.scale, o.notes(row)...))
	return err
}

// notes are the report lines between its title and its cycles: the
// fault plan and the heterogeneity plane as the flags gave them, and
// the adaptive policy's page moves.
func (o *options) notes(row harness.RunRow) []string {
	var notes []string
	if o.spec.Fault.Enabled() {
		notes = append(notes, fmt.Sprintf("  fault plan: seed %d, drop %.2f%%, dup %.2f%%, delay %.2f%%, pause %d/%d",
			o.spec.Fault.Seed, o.drop, o.dup, o.delay, o.spec.Fault.PauseFor, o.spec.Fault.PauseEvery))
	}
	if o.spec.Hetero.Enabled() {
		notes = append(notes, fmt.Sprintf("  hetero: skew %s, placement %s", o.hetero, o.placement))
	}
	if o.spec.Hetero.Placement == swsm.PlaceAdaptive {
		notes = append(notes, fmt.Sprintf("    pages rehomed %d, demoted %d",
			row.Counters[stats.PagesRehomed.String()], row.Counters[stats.PagesDemoted.String()]))
	}
	return notes
}

// writeTrace serializes a traced run's observability products: Chrome
// trace, JSONL trace, timeline CSV, and a hot-object report on the
// notice writer.
func (o *options) writeTrace(notices io.Writer, res *swsm.Result) error {
	d := res.Trace
	if d == nil {
		return fmt.Errorf("run carried no trace data")
	}
	label := fmt.Sprintf("%s/%s", res.Spec.App, res.Spec.Protocol)
	for _, f := range []struct {
		path, note string
		write      func(io.Writer) error
	}{
		{o.chrome, fmt.Sprintf("trace: %s (%d events; load in Perfetto)", o.chrome, len(d.Events)),
			func(w io.Writer) error { return swsm.WriteChromeTrace(w, label, d) }},
		{o.jsonl, "trace-jsonl: " + o.jsonl,
			func(w io.Writer) error { return swsm.WriteJSONLTrace(w, []swsm.TraceRun{{Label: label, Data: d}}) }},
		{o.timeline, fmt.Sprintf("timeline: %s (%d samples)", o.timeline, len(d.Samples)),
			func(w io.Writer) error { return swsm.WriteBreakdownTimelineCSV(w, d.Samples) }},
	} {
		if f.path == "" {
			continue
		}
		if err := cli.WriteFile(f.path, f.write); err != nil {
			return err
		}
		fmt.Fprintf(notices, "  %s\n", f.note)
	}
	if o.hotK > 0 && d.Hot != nil {
		fmt.Fprintf(notices, "%s hot objects (top %d):\n%s", label, o.hotK, harness.FormatHotObjects(d.Hot, o.hotK))
	}
	return nil
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
