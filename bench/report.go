package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roundResult is what one round process reports to the parent, as one
// JSON line on its standard output.
type roundResult struct {
	Workload string `json:"workload"`
	// FirstOp is when the first timed op started (Unix ns); the parent
	// subtracts the moment it started the process to get setup_s.
	FirstOp int64 `json:"firstOp"`
	// PassS is the timed pass's wall time; LedgerS the part of it the
	// ledger covers (all of it, except service's sweep phases).
	PassS   float64 `json:"passS"`
	LedgerS float64 `json:"ledgerS"`
	// SimCycles were simulated in SimS host seconds of simulating ops,
	// whose latencies are SimLatMs.
	SimCycles   int64     `json:"simCycles"`
	SimS        float64   `json:"simS"`
	SimLatMs    []float64 `json:"simLatMs,omitempty"`
	WarmLatMs   []float64 `json:"warmLatMs,omitempty"`
	SweepPerS   float64   `json:"sweepPerS,omitempty"`
	ClusterPerS float64   `json:"clusterPerS,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest,omitempty"`

	// Traced and layer rounds only: per-layer metrics, ledger inputs and
	// CPU nanoseconds per profile bucket.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Ledger  map[string]float64 `json:"ledger,omitempty"`
	Profile map[string]float64 `json:"profile,omitempty"`

	// Filled in by the parent from the outside of the process.
	SetupS float64 `json:"-"`
	RSSMB  float64 `json:"-"`
	WallS  float64 `json:"-"` // the whole round process, start to exit
}

// fail counts a failed op and keeps its message (the first few).
func (r *roundResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// profileHz is the CPU profile's sampling rate.
const profileHz = 500

// profiler takes the CPU profile and the heap allocation of a traced
// pass.  A nil *profiler does nothing.
type profiler struct {
	buf bytes.Buffer
	ms  runtime.MemStats
}

func (p *profiler) start() {
	if p == nil {
		return
	}
	runtime.ReadMemStats(&p.ms)
	// Sample at 500 Hz rather than pprof's 100 Hz: a 2 s pass then gives
	// about a thousand samples.  Setting the rate first is the documented
	// way; StartCPUProfile then warns on standard error that it cannot
	// set its own.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
	}
}

func (p *profiler) stop(r *roundResult) {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if r.Layer == nil {
		r.Layer = map[string]float64{}
	}
	r.Layer["harness.alloc_mb"] = float64(ms.TotalAlloc-p.ms.TotalAlloc) / (1 << 20)
	shares, err := layerShares(p.buf.Bytes())
	if err != nil {
		r.fail("cpu profile: %v", err)
		return
	}
	r.Profile = shares
}

// --- the parent: rounds in child processes ---

const (
	minRounds = 3
	maxRounds = 40
	// budget stops new rounds from starting, and deadline kills a round
	// still running, so an invocation ends within three minutes even on
	// a slow host.
	budget   = 120 * time.Second
	deadline = 170 * time.Second
)

// workloadRun collects one workload's rounds.
type workloadRun struct {
	w      workload
	pass   []roundResult
	traced []roundResult
	layers *roundResult
	// attempted, failed and failures include every round and the
	// parent's own checks (digests).
	attempted, failed int
	failures          []string
	// broken stops a workload whose round process failed outright.
	broken bool
}

// run starts one round process and waits for it.  The process is
// killed when ctx ends (the invocation's deadline, or a signal).
func (wr *workloadRun) run(ctx context.Context, role string, seed int64, out string) (roundResult, bool) {
	exe, err := os.Executable()
	if err != nil {
		wr.record(roundResult{}, fmt.Errorf("%s round: %w", role, err))
		return roundResult{}, false
	}
	cmd := exec.CommandContext(ctx, exe, "-child", role, "-workload", wr.w.name,
		"-seed", strconv.FormatInt(seed, 10), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()
	var r roundResult
	if err == nil {
		line := bytes.TrimSpace(stdout.Bytes())
		if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
			line = line[i+1:]
		}
		err = json.Unmarshal(line, &r)
	}
	if err != nil {
		wr.record(roundResult{}, fmt.Errorf("%s round: %w", role, err))
		return roundResult{}, false
	}
	r.WallS = wall
	if r.FirstOp > 0 {
		r.SetupS = float64(r.FirstOp-start.UnixNano()) / 1e9
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	wr.record(r, nil)
	return r, true
}

func (wr *workloadRun) record(r roundResult, err error) {
	if err != nil {
		r.Attempted, r.Failed, r.Failures = 1, 1, []string{err.Error()}
	}
	wr.attempted += max(r.Attempted, r.Failed)
	wr.failed += r.Failed
	wr.failures = append(wr.failures, r.Failures...)
}

// needsMore reports whether another round should start, given the wall
// times of the workload's rounds so far: at least min rounds, then as
// long as one more round of their mean length ends within seconds.  An
// invocation of one workload therefore lasts about seconds, however
// long its set-up and pass are.
func needsMore(walls []float64, min int, seconds float64, begun time.Time) bool {
	var s float64
	for _, w := range walls {
		s += w
	}
	switch {
	case len(walls) < min:
		return true
	case len(walls) >= maxRounds || time.Since(begun) > budget:
		return false
	}
	return s+s/float64(len(walls)) <= seconds
}

// roundWalls returns the wall time of each round, adding up the rounds
// of several lists index by index (a traced invocation's untraced and
// traced rounds run in pairs).
func roundWalls(lists ...[]roundResult) []float64 {
	out := make([]float64, len(lists[0]))
	for _, rs := range lists {
		for i, r := range rs {
			if i < len(out) {
				out[i] += r.WallS
			}
		}
	}
	return out
}

// runParent measures the named workloads and prints the report.  Rounds
// interleave across workloads, so a slow phase of the host hits them
// alike.  In a traced invocation untraced and traced rounds alternate,
// and their medians give the tracing overhead.  It returns the process
// exit code.
func runParent(names []string, seed int64, seconds float64, traced bool, out string) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var runs []*workloadRun
	for _, n := range names {
		w, _ := workloadByName(n)
		runs = append(runs, &workloadRun{w: w})
	}
	begun := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	for active := true; active && ctx.Err() == nil; {
		active = false
		for _, wr := range runs {
			switch {
			case wr.broken:
			case traced && needsMore(roundWalls(wr.traced, wr.pass), 1, seconds, begun):
				r, ok := wr.run(ctx, "pass", seed, out)
				wr.pass = append(wr.pass, r)
				if ok {
					r, ok = wr.run(ctx, "traced", seed, out)
					wr.traced = append(wr.traced, r)
				}
				wr.broken, active = !ok, ok
			case !traced && needsMore(roundWalls(wr.pass), minRounds, seconds, begun):
				r, ok := wr.run(ctx, "pass", seed, out)
				wr.pass = append(wr.pass, r)
				wr.broken, active = !ok, ok
			}
		}
	}
	if traced {
		for _, wr := range runs {
			if r, ok := wr.run(ctx, "layers", seed, out); ok {
				wr.layers = &r
			}
		}
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: stopped:", context.Cause(ctx))
		return 2
	}

	all := map[string]result{}
	correct := true
	var attempted, failed int
	for _, wr := range runs {
		wr.checkDigests(seed)
		res := wr.report(seed, traced)
		all[wr.w.name] = res
		correct = correct && wr.failed == 0
		attempted += wr.attempted
		failed += wr.failed
		if err := res.save(out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	fmt.Printf("\n%d workload(s) in %.1f s\n", len(runs), time.Since(begun).Seconds())

	// The last line of standard output is the machine-readable result.
	metrics := map[string]jsonMetric{}
	for name, res := range all {
		for _, m := range res.metricOrder {
			key := m
			if len(all) > 1 {
				key = name + "." + m
			}
			metrics[key] = jsonMetric{Value: res.Metrics[m].Value, Unit: res.Metrics[m].Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(attempted, 1), failed, metrics})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

//go:embed testdata/digests.json
var expectedDigests []byte

// checkDigests requires every round of a workload to produce the same
// rows, and at seed 1 the rows recorded in testdata/digests.json.
func (wr *workloadRun) checkDigests(seed int64) {
	var want map[string]string
	if err := json.Unmarshal(expectedDigests, &want); err != nil {
		wr.failed++
		wr.failures = append(wr.failures, "testdata/digests.json: "+err.Error())
		return
	}
	first := ""
	for i, r := range append(append([]roundResult(nil), wr.pass...), wr.traced...) {
		if r.Digest == "" {
			continue // a failed round, already counted
		}
		if first == "" {
			first = r.Digest
		}
		switch {
		case seed == 1 && r.Digest != want[wr.w.name]:
			wr.failed++
			wr.failures = append(wr.failures, fmt.Sprintf("round %d rows digest %.12s differs from testdata/digests.json (%.12s) at seed 1", i, r.Digest, want[wr.w.name]))
		case r.Digest != first:
			wr.failed++
			wr.failures = append(wr.failures, fmt.Sprintf("round %d rows digest %.12s differs from the first round's (%.12s)", i, r.Digest, first))
		}
	}
}

// --- results ---

// metricResult is one metric of one invocation: the median over rounds
// with its quartiles and the number of rounds.
type metricResult struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// result is one invocation's record, saved to the output directory for
// -compare.
type result struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Traced      bool                    `json:"traced"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	Digest      string                  `json:"digest"`
	Metrics     map[string]metricResult `json:"metrics"`
	Details     map[string]metricResult `json:"details"`
	metricOrder []string
}

func (res *result) save(out string) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if res.Traced {
		mode = "layers"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%d.json", res.Workload, res.Seed, mode, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(out, name), data, 0o644)
}

func summarize(vals []float64, unit string) metricResult {
	q1, med, q3 := quartiles(vals)
	return metricResult{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(vals), Rounds: vals}
}

// report computes a workload's metrics and prints its table.
func (wr *workloadRun) report(seed int64, traced bool) result {
	res := result{
		Workload: wr.w.name, Seed: seed, Traced: traced,
		Metrics: map[string]metricResult{}, Details: map[string]metricResult{},
	}
	pass := completed(wr.pass)
	if len(pass) > 0 {
		res.Digest = pass[0].Digest
	}
	per := func(f func(r roundResult) float64) []float64 {
		out := make([]float64, len(pass))
		for i, r := range pass {
			out[i] = f(r)
		}
		return out
	}
	e2e := map[string][]float64{
		"setup_s":     per(func(r roundResult) float64 { return r.SetupS }),
		"peak_rss_mb": per(func(r roundResult) float64 { return r.RSSMB }),
		"pass_s":      per(func(r roundResult) float64 { return r.PassS }),
		"sim_cycles_per_s": per(func(r roundResult) float64 {
			if r.SimS == 0 { // every op failed; the failures are reported
				return 0
			}
			return float64(r.SimCycles) / r.SimS
		}),
	}

	// Pooled latency samples: a tail is quoted only with at least ten
	// samples beyond it.
	var simLat, warmLat []float64
	for _, r := range pass {
		simLat = append(simLat, r.SimLatMs...)
		warmLat = append(warmLat, r.WarmLatMs...)
	}
	pooled := func(name string, samples []float64) {
		if len(samples) == 0 {
			return
		}
		res.Details[name+"_p50_ms"] = metricResult{Value: median(samples), Unit: "ms", N: len(samples)}
		if label, v, ok := tail(samples); ok && label != "p50" {
			res.Details[name+"_"+strings.ReplaceAll(label, ".", "_")+"_ms"] = metricResult{Value: v, Unit: "ms", N: len(samples)}
		}
	}
	simName := "run"
	if wr.w.name == "service" {
		simName = "job_cold"
		pooled("job_warm", warmLat)
		res.Details["sweep_points_per_s"] = summarize(per(func(r roundResult) float64 { return r.SweepPerS }), "1/s")
		res.Details["cluster_sweep_points_per_s"] = summarize(per(func(r roundResult) float64 { return r.ClusterPerS }), "1/s")
	}
	pooled(simName, simLat)
	res.Details["failed_ratio"] = metricResult{Value: float64(wr.failed) / float64(max(wr.attempted, 1)), Unit: "ratio", N: wr.attempted}

	fmt.Printf("\n== %s (seed %d): %s\n", wr.w.name, seed, wr.w.why)
	if traced {
		layer := wr.layerMetrics(pass)
		for _, m := range perLayer {
			res.Metrics[m.Name] = layer[m.Name]
			res.metricOrder = append(res.metricOrder, m.Name)
		}
		printTable(perLayer, res.Metrics)
		wr.printLedger(pass, layer)
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = summarize(e2e[m.Name], m.Unit)
			res.metricOrder = append(res.metricOrder, m.Name)
		}
		printTable(endToEnd, res.Metrics)
	}
	fmt.Println("  details:")
	keys := make([]string, 0, len(res.Details))
	for k := range res.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := res.Details[k]
		fmt.Printf("    %-30s %14s %-8s n=%d\n", k, format(d.Value), d.Unit, d.N)
	}
	fmt.Printf("    %-30s %s\n", "rows digest", res.Digest)
	for _, f := range wr.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	res.Correct = wr.failed == 0
	res.Attempted, res.Failed = wr.attempted, wr.failed
	return res
}

// completed drops rounds whose process failed outright.
func completed(rs []roundResult) []roundResult {
	var out []roundResult
	for _, r := range rs {
		if r.Workload != "" {
			out = append(out, r)
		}
	}
	return out
}

func printTable(defs []metricDef, ms map[string]metricResult) {
	fmt.Printf("  %-32s %-9s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		m := ms[d.Name]
		fmt.Printf("  %-32s %-9s %14s %14s %14s %4d\n", d.Name, d.Unit, format(m.Value), format(m.Q1), format(m.Q3), m.N)
	}
}

func format(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1e6:
		return strconv.FormatFloat(v, 'e', 4, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
}

// layerMetrics assembles the per-layer metrics of a traced invocation.
func (wr *workloadRun) layerMetrics(pass []roundResult) map[string]metricResult {
	traced := completed(wr.traced)
	out := map[string]metricResult{}
	set := func(name string, vals []float64) {
		unit := ""
		for _, d := range perLayer {
			if d.Name == name {
				unit = d.Unit
			}
		}
		out[name] = summarize(vals, unit)
	}
	// Counts and allocation from every traced round; the counts repeat
	// exactly, so their quartiles collapse onto the median.
	keys := map[string]bool{}
	for _, r := range traced {
		for k := range r.Layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var vals []float64
		for _, r := range traced {
			vals = append(vals, r.Layer[k])
		}
		set(k, vals)
	}
	// Layer benchmarks and the service probe.
	if wr.layers != nil {
		for k, v := range wr.layers.Layer {
			set(k, []float64{v})
		}
	}
	// Self time per layer, pooled over the traced rounds' profiles.
	total := 0.0
	pooled := map[string]float64{}
	for _, r := range traced {
		for b, ns := range r.Profile {
			pooled[b] += ns
			total += ns
		}
	}
	for _, b := range profileLayers {
		set(selfPctName(b), []float64{pct(pooled[b], total)})
	}
	// Tracing overhead: traced against untraced pass time.
	tp := make([]float64, len(traced))
	for i, r := range traced {
		tp[i] = r.PassS
	}
	up := make([]float64, len(pass))
	for i, r := range pass {
		up[i] = r.PassS
	}
	if u := median(up); u > 0 && len(tp) > 0 {
		set("trace_overhead_pct", []float64{100 * (median(tp) - u) / u})
	}
	if lines, wall := wr.ledgerLines(pass); wall > 0 {
		sum := 0.0
		for _, l := range lines {
			sum += l.seconds
		}
		set("ledger.residual_pct", []float64{100 * (wall - sum) / wall})
	}
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = metricResult{Unit: d.Unit}
		}
	}
	return out
}

// ledgerLines returns the workload's ledger and the untraced wall time
// it is held against.
func (wr *workloadRun) ledgerLines(pass []roundResult) ([]ledgerLine, float64) {
	traced := completed(wr.traced)
	if wr.layers == nil || len(traced) == 0 || len(pass) == 0 {
		return nil, 0
	}
	walls := make([]float64, len(pass))
	for i, r := range pass {
		walls[i] = r.LedgerS
	}
	in := traced[len(traced)-1].Ledger
	if wr.w.name == "service" {
		return serviceLedger(in, wr.layers.Layer), median(walls)
	}
	return simLedger(in, wr.layers.Layer), median(walls)
}

// printLedger prints the host-time attribution next to the CPU profile's
// view of the same layers.
func (wr *workloadRun) printLedger(pass []roundResult, layer map[string]metricResult) {
	lines, wall := wr.ledgerLines(pass)
	if wall == 0 {
		return
	}
	fmt.Printf("  ledger (counts x per-call cost, against %.3f s of untraced pass):\n", wall)
	sum := 0.0
	for _, l := range lines {
		sum += l.seconds
		fmt.Printf("    %-24s %8.3f s %6.1f%%\n", l.layer, l.seconds, 100*l.seconds/wall)
	}
	fmt.Printf("    %-24s %8.3f s %6.1f%%\n", "residual", wall-sum, 100*(wall-sum)/wall)
	var inLedger float64
	for _, b := range []string{"core", "cache", "mem", "consistency", "proto", "comm", "sim", "fault", "hetero"} {
		inLedger += layer[selfPctName(b)].Value
	}
	if wr.w.name == "service" {
		inLedger = layer["store.self_pct"].Value + layer["apps.self_pct"].Value + inLedger
	}
	fmt.Printf("    profile share of the ledger's layers %.1f%%, of everything else %.1f%%\n", inLedger, 100-inLedger)
}

// --- compare ---

// runCompare prints, for every workload and end-to-end metric, the
// medians and quartiles of two directories of results and a verdict
// against the metric's bound in BENCHMARK.json.
func runCompare(w io.Writer, dirA, dirB string) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResults(dirA)
	if err == nil {
		var b map[string][]result
		if b, err = loadResults(dirB); err == nil {
			return compareResults(w, bf, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func loadResults(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-e2e-*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end results", dir)
	}
	return out, nil
}

func compareResults(w io.Writer, bf *benchmarkFile, a, b map[string][]result) int {
	code := 0
	fmt.Fprintf(w, "%-9s %-18s %36s %36s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B vs A", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := invocationValues(ra, m.Name), invocationValues(rb, m.Name)
			verdict, worse := judge(va, vb, m.Better, m.Bound)
			if verdict == "WORSE" {
				code = 1
			}
			fmt.Fprintf(w, "%-9s %-18s %36s %36s %+7.1f%% %5.0f%%  %s\n", wl.name, m.Name,
				describe(va), describe(vb), 100*worse, 100*m.Bound, verdict)
		}
		fmt.Fprintf(w, "%-9s %-18s %s\n", wl.name, "rows digest", digestVerdict(ra, rb))
		fmt.Fprintf(w, "%-9s %-18s A %d/%d failed, B %d/%d failed\n", wl.name, "failed ops", failedOps(ra), attemptedOps(ra), failedOps(rb), attemptedOps(rb))
	}
	return code
}

func invocationValues(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describe(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%s [%s, %s] %d", format(med), format(q1), format(q3), len(v))
}

// judge returns the verdict for B against A and how much worse B's
// median is, as a share of A's (negative when better).  A metric whose
// spread on either side exceeds its bound is unresolved unless every B
// run beats every A run.
func judge(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "no baseline", 0
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	if s := math.Max(spread(a), spread(b)); s > bound {
		if allBetter(a, b, better) {
			return "better (every run)", worse
		}
		return fmt.Sprintf("unresolved (spread %.1f%%)", 100*s), worse
	}
	switch {
	case worse > bound:
		return "WORSE", worse
	case worse < -bound:
		return "better", worse
	}
	return "within bound", worse
}

func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// digestVerdict checks that every invocation at the same seed produced
// the same rows.
func digestVerdict(a, b []result) string {
	bySeed := map[int64]map[string]bool{}
	for _, r := range append(append([]result(nil), a...), b...) {
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = map[string]bool{}
		}
		bySeed[r.Seed][r.Digest] = true
	}
	for s, ds := range bySeed {
		if len(ds) > 1 {
			return fmt.Sprintf("DIFFERENT at seed %d", s)
		}
	}
	return fmt.Sprintf("identical for each seed (%d invocations)", len(a)+len(b))
}

func failedOps(rs []result) (n int) {
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func attemptedOps(rs []result) (n int) {
	for _, r := range rs {
		n += r.Attempted
	}
	return n
}
