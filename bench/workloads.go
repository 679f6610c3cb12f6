package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"swsm/internal/apps"
	"swsm/internal/harness"
	"swsm/internal/stats"
)

// A workload is one traffic mix.  The four are chosen so that each puts
// a different layer on top of the host profile (see README.md):
//
//	ladder   the paper's Figure-3 grid: cache model, core access path, mem
//	faulted  drops, LRC and adaptive homes: engine, comm, protocol
//	checked  the consistency checker on: recorder and checker
//	service  svmd, its store and the cluster over HTTP: server, store, net
//
// The program only ever sees the specs generated here from the seed.
type workload struct {
	name string
	why  string
	// ops generates a simulation workload's timed pass (nil for service).
	ops func(seed int64) []simOp
	// warmup is the simulation workload's untimed run made during set-up,
	// after the sequential baselines.
	warmup harness.RunSpec
}

// simOp is one simulation of a timed pass.
type simOp struct {
	label string
	spec  harness.RunSpec
	// speedup annotates the row with the app's sequential baseline.
	speedup bool
}

var workloads = []workload{
	{
		name:   "ladder",
		why:    "Figure-3 ladder of fft, lu, ocean and radix at Base/16p: the cache model, core access path and node memory dominate host time",
		ops:    ladderOps,
		warmup: figure3Spec("lu", "ideal"),
	},
	{
		name:   "faulted",
		why:    "five apps under hlrc, lrc and sc with 1% drops and adaptive homes on mixed nodes: the engine, comm and protocol layers dominate",
		ops:    faultedOps,
		warmup: harness.FaultedSpec(harness.DefaultSpec("water-nsquared", harness.SC), 0, dropPPM),
	},
	{
		name:   "checked",
		why:    "the consistency checker on across hlrc, lrc, sc, adaptive homes and a litmus ladder: the only mix where the recorder and checker work",
		ops:    checkedOps,
		warmup: checkedSpec("water-nsquared", "hlrc", apps.Tiny),
	},
	{
		name: "service",
		why:  "an in-process svmd and cluster driven over HTTP by two closed-loop clients: the only mix on the job API, store and dispatch paths",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dropPPM is the faulted workload's wire drop rate: 1%.
const dropPPM = 10_000

// shuffle permutes ops in place, deterministically for a seed.
func shuffle[T any](seed int64, xs []T) {
	rand.New(rand.NewSource(seed)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// figure3Spec returns one labelled cell of an app's Base/16p Figure-3 grid.
func figure3Spec(app, label string) harness.RunSpec {
	specs, labels, err := harness.Figure3Specs(app, apps.Base, 16, ladderConfigs)
	if err != nil {
		panic(err)
	}
	for i, l := range labels {
		if l == label {
			return specs[i]
		}
	}
	panic(fmt.Sprintf("bench: no Figure-3 cell %q for %s", label, app))
}

// ladderConfigs is the subset of the Figure-3 configuration ladder the
// pass runs: both layers idealised (BB) and the base system (AO), which
// together with the ideal machine take about 2.5 s of host time at
// Base/16p.
var ladderConfigs = []harness.LayerConfig{{Comm: "B", Costs: "B"}, {Comm: "A", Costs: "O"}}

func ladderOps(seed int64) []simOp {
	var ops []simOp
	for _, app := range []string{"fft", "lu", "ocean", "radix"} {
		specs, labels, err := harness.Figure3Specs(app, apps.Base, 16, ladderConfigs)
		if err != nil {
			panic(err)
		}
		for i := range specs {
			ops = append(ops, simOp{label: app + "/" + labels[i], spec: specs[i], speedup: true})
		}
	}
	shuffle(seed, ops)
	return ops
}

func faultedOps(seed int64) []simOp {
	mixed, err := harness.HeteroSpec("mixed", "adaptive")
	if err != nil {
		panic(err)
	}
	var ops []simOp
	for _, app := range []string{"radix", "water-nsquared", "barnes", "ocean-rowwise", "volrend"} {
		for _, p := range []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC} {
			spec := harness.FaultedSpec(harness.DefaultSpec(app, p), uint64(seed), dropPPM)
			label := app + "/" + string(p)
			if p == harness.HLRC {
				spec.Hetero = mixed
				label += "/mixed-adaptive"
			}
			ops = append(ops, simOp{label: label, spec: spec, speedup: true})
		}
	}
	shuffle(seed, ops)
	return ops
}

// checkedSpec is one checked cell on 8 processors; cell is a protocol
// or "adaptive" (HLRC with adaptive homes on the mixed preset).
func checkedSpec(app, cell string, scale apps.Scale) harness.RunSpec {
	spec := harness.DefaultSpec(app, harness.ProtocolKind(cell))
	if cell == "adaptive" {
		spec.Protocol = harness.HLRC
		hs, err := harness.HeteroSpec("mixed", "adaptive")
		if err != nil {
			panic(err)
		}
		spec.Hetero = hs
	}
	spec.Scale = scale
	spec.Procs = 8
	spec.Check = true
	return spec
}

// checkedLitmusSeeds is how many litmus programs the checked pass runs
// under each protocol: the programs of litmus seeds 0 to 23.
const checkedLitmusSeeds = 24

// checkedOps runs radix and water-nsquared at Base/8p and fft, lu and
// ocean at Tiny/8p: checking fft, lu and ocean at Base/8p alone takes
// 13 s, and the pass is sized to about 1.5 s.
//
// The litmus programs are the same for every bench seed, which only
// orders the pass.  A litmus program's cost varies with its seed, so
// seed-drawn programs would make the pass's cost vary with the bench
// seed; and a workload must not fail on any seed, while about one litmus
// program in a hundred fails the checker under sc (seeds 74, 269, 274
// and 352 of the first 400 at Base/8p).  Seeds 0 to 23 conform under all
// three protocols.
func checkedOps(seed int64) []simOp {
	var ops []simOp
	cells := []string{"hlrc", "lrc", "sc", "adaptive"}
	for _, a := range []struct {
		app   string
		scale apps.Scale
	}{
		{"radix", apps.Base}, {"water-nsquared", apps.Base},
		{"fft", apps.Tiny}, {"lu", apps.Tiny}, {"ocean", apps.Tiny},
	} {
		for _, c := range cells {
			ops = append(ops, simOp{
				label: fmt.Sprintf("%s/%s/%s", a.app, c, scaleName(a.scale)),
				spec:  checkedSpec(a.app, c, a.scale), speedup: true,
			})
		}
	}
	for s := uint64(0); s < checkedLitmusSeeds; s++ {
		for _, p := range []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC} {
			ops = append(ops, simOp{
				label: fmt.Sprintf("litmus-%d/%s", s, p),
				spec:  harness.LitmusSpec(s, p, apps.Base, 8),
			})
		}
	}
	shuffle(seed, ops)
	return ops
}

func scaleName(s apps.Scale) string {
	switch s {
	case apps.Tiny:
		return "tiny"
	case apps.Base:
		return "base"
	}
	return "large"
}

// --- one simulation round ---

// simRound is what a simulation workload's round produced.
type simRound struct {
	roundResult
	rows []harness.RunRow
}

// runSimRound performs set-up (sequential baselines, one warm-up run)
// and then the timed pass, one harness.Run per op in seeded order.  Each
// run builds a fresh machine, so every simulation starts with empty
// modelled caches, as the paper's runs do.
func runSimRound(w workload, seed int64, sp *spans, profile *profiler) simRound {
	ops := w.ops(seed)
	var r simRound
	r.Workload = w.name
	r.Layer = map[string]float64{}

	t := time.Now()
	base, err := baselines(ops)
	sp.add("harness", "harness.Run sequential baselines", 0, t, map[string]any{"runs": len(base)})
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	t = time.Now()
	if _, err := harness.Run(w.warmup); err != nil {
		r.fail("warm-up: %v", err)
		return r
	}
	sp.add("harness", "harness.Run warm-up", 0, t, nil)

	profile.start()
	rows := make(map[string][]byte, len(ops))
	first := time.Now()
	r.FirstOp = first.UnixNano()
	for _, op := range ops {
		r.Attempted++
		t := time.Now()
		res, err := harness.Run(op.spec)
		lat := time.Since(t)
		if err != nil {
			r.fail("%s: %v", op.label, err)
			continue
		}
		row := harness.NewRunRow(res)
		if op.speedup {
			row = row.WithSpeedup(base[baselineKey(op.spec)])
		}
		data, err := json.Marshal(row)
		if err != nil {
			r.fail("%s: %v", op.label, err)
			continue
		}
		rows[row.Key] = data
		r.rows = append(r.rows, row)
		r.SimCycles += res.Cycles
		r.SimS += lat.Seconds()
		r.SimLatMs = append(r.SimLatMs, lat.Seconds()*1e3)
		sp.add("harness", "harness.Run "+op.label, 0, t, runArgs(row))
	}
	r.PassS = time.Since(first).Seconds()
	r.LedgerS = r.PassS
	sp.add("bench", "pass", 1, first, map[string]any{"ops": len(ops)})
	profile.stop(&r.roundResult)
	r.Digest = digest(rows)
	return r
}

func baselineKey(spec harness.RunSpec) string {
	return fmt.Sprintf("%s/%d", spec.App, spec.Scale)
}

// baselines runs the sequential baseline of every app the ops annotate
// with a speedup.
func baselines(ops []simOp) (map[string]int64, error) {
	out := map[string]int64{}
	for _, op := range ops {
		k := baselineKey(op.spec)
		if _, done := out[k]; !op.speedup || done {
			continue
		}
		seq, err := harness.SequentialBaseline(op.spec.App, op.spec.Scale, true)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", k, err)
		}
		out[k] = seq
	}
	return out, nil
}

// runArgs attaches a run's counts to its span.
func runArgs(row harness.RunRow) map[string]any {
	args := map[string]any{"key": row.Key, "cycles": row.Cycles}
	for _, c := range []string{"loads", "stores", "msgsSent", "pageFetches", "blockFetches", "diffsCreated", "retransmits"} {
		if v := row.Counters[c]; v != 0 {
			args[c] = v
		}
	}
	return args
}

// digest is the SHA-256 of the rows' canonical JSON, sorted by content
// key: equal digests mean byte-identical results.
func digest(rows map[string][]byte) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(rows[k])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rowCounts sums the layer counters of a round's rows.  Every count is
// a pure function of the specs, so it repeats exactly across rounds and
// hosts; sim_time.* is simulated time, not host time.
func rowCounts(rows []harness.RunRow) map[string]float64 {
	c := map[string]float64{}
	var cycles, checked float64
	var simTime [stats.NumCategories]float64
	for _, row := range rows {
		for name, v := range row.Counters {
			c[name] += float64(v)
		}
		for cat := range simTime {
			// Breakdown is the per-processor mean; times the processor
			// count it gives back the integer total it was computed from.
			simTime[cat] += math.Round(row.Breakdown[stats.Category(cat).String()] * float64(row.Spec.Procs))
		}
		if s := row.Consistency; s != nil {
			checked += float64(s.Loads + s.Stores + s.SyncOps)
		}
		cycles += float64(row.Cycles)
	}
	out := map[string]float64{
		"core.loads":            c["loads"],
		"core.stores":           c["stores"],
		"cache.l1_misses":       c["l1Misses"],
		"cache.l2_misses":       c["l2Misses"],
		"proto.page_fetches":    c["pageFetches"],
		"proto.block_fetches":   c["blockFetches"],
		"proto.diffs":           c["diffsCreated"],
		"proto.twins":           c["twinsCreated"],
		"proto.invalidations":   c["invalidations"],
		"proto.diff_useful_pct": pct(c["diffWordsWritten"], c["diffWordsCompared"]),
		"comm.msgs":             c["msgsSent"],
		"comm.bytes":            c["bytesSent"],
		"comm.retransmit_pct":   pct(c["retransmits"], c["msgsSent"]),
		"hetero.pages_rehomed":  c["pagesRehomed"],
		"hetero.pages_demoted":  c["pagesDemoted"],
		"consistency.ops":       checked,
		"harness.runs":          float64(len(rows)),
		"harness.sim_cycles":    cycles,
	}
	for cat, v := range simTime {
		out["sim_time."+stats.Category(cat).String()] = v
	}
	return out
}

// pct is 100*num/den, 0 for an empty denominator.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	if num < 0 {
		num = 0
	}
	return 100 * num / den
}
