package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"swsm/internal/apps"
)

// The benchmark emits exactly the metrics BENCHMARK.json declares, with
// the same units and directions, in the same order.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from what the benchmark emits\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from what the benchmark emits\n%v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark has %v", names, ours)
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// A traced round fills every per-layer metric the profile buckets and
// the layer benchmarks name.
func TestPerLayerCoversProfileBuckets(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for _, b := range profileLayers {
		if !declared[selfPctName(b)] {
			t.Errorf("profile bucket %s has no per-layer metric %s", b, selfPctName(b))
		}
	}
	for _, m := range micros(1, t.TempDir()) {
		if !declared[m.name] {
			t.Errorf("layer benchmark %s is not a per-layer metric", m.name)
		}
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// The same seed generates the same inputs; another seed generates
// different inputs of the same size.
func TestInputsFromSeed(t *testing.T) {
	for _, w := range workloads {
		if w.ops == nil {
			continue
		}
		a, b, c := w.ops(1), w.ops(1), w.ops(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different op lists", w.name)
		}
		if len(a) != len(c) {
			t.Errorf("%s: seed 1 has %d ops, seed 2 has %d", w.name, len(a), len(c))
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same op list", w.name)
		}
	}
	a, b, c := servicePlanFor(1, fullService), servicePlanFor(1, fullService), servicePlanFor(2, fullService)
	if !reflect.DeepEqual(a, b) {
		t.Error("service: seed 1 generated two different plans")
	}
	if len(a.cold) != len(c.cold) || len(a.warm) != len(c.warm) || len(a.sweep) != len(c.sweep) {
		t.Errorf("service: plan sizes differ between seeds: %d/%d/%d vs %d/%d/%d",
			len(a.cold), len(a.warm), len(a.sweep), len(c.cold), len(c.warm), len(c.sweep))
	}
	if reflect.DeepEqual(a, c) {
		t.Error("service: seeds 1 and 2 generated the same plan")
	}
	// Every seed requests the same population of distinct specs.
	keys := func(p servicePlan) []string {
		var out []string
		for _, s := range p.cold {
			out = append(out, s.Key())
		}
		sort.Strings(out)
		return out
	}
	ka, kc := keys(a), keys(c)
	if !reflect.DeepEqual(ka, kc) {
		t.Error("service: seeds 1 and 2 requested different spec populations")
	}
	for i := 1; i < len(ka); i++ {
		if ka[i] == ka[i-1] {
			t.Fatalf("service: spec %s appears twice among the cold specs", ka[i])
		}
	}
}

// Rounds repeat while one more of their mean length fits in the
// invocation's seconds, but never fewer than the minimum.
func TestRoundsFitInSeconds(t *testing.T) {
	now := time.Now()
	rounds := func(n int, wall float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = wall
		}
		return out
	}
	for _, c := range []struct {
		walls []float64
		want  bool
	}{
		{nil, true},
		{rounds(2, 20), true}, // below the minimum of 3
		{rounds(3, 20), false},
		{rounds(9, 3), true}, // the tenth ends at 30 s
		{rounds(10, 3), false},
	} {
		if got := needsMore(c.walls, 3, 30, now); got != c.want {
			t.Errorf("needsMore(%v) = %t, want %t", c.walls, got, c.want)
		}
	}
	pass := []roundResult{{WallS: 1}, {WallS: 2}}
	traced := []roundResult{{WallS: 3}}
	if got := roundWalls(traced, pass); !reflect.DeepEqual(got, []float64{4}) {
		t.Errorf("roundWalls = %v, want [4]", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Error("p99 of 999 samples (9 beyond it) was accepted")
	}
	v, ok := percentile(samples(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if label, v, ok := tail(samples(1000)); !ok || label != "p99" || v != 990 {
		t.Errorf("tail of 1,000 samples = %s %v %v; want p99 990", label, v, ok)
	}
	if label, _, _ := tail(samples(150)); label != "p90" {
		t.Errorf("tail of 150 samples = %s; want p90", label)
	}
}

// quartiles agrees with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates for two values
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// smokeOps shrinks a simulation workload to its first two ops at Tiny
// scale on four processors.
func smokeOps(w workload) []simOp {
	ops := w.ops(1)[:2]
	for i := range ops {
		ops[i].spec.Scale, ops[i].spec.Procs = apps.Tiny, 4
	}
	return ops
}

// A reduced-size round of every workload runs without a failed op and
// produces the same rows digest twice.
func TestSmokeRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations and an in-process service")
	}
	for _, w := range workloads {
		if w.ops == nil {
			continue
		}
		small := w
		small.ops = func(int64) []simOp { return smokeOps(w) }
		small.warmup = smokeOps(w)[0].spec
		a, b := runSimRound(small, 1, nil, nil), runSimRound(small, 1, newSpans(), nil)
		if a.Failed != 0 || a.Attempted != 2 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, a.Failed, a.Attempted, a.Failures)
		}
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: digests %q and %q", w.name, a.Digest, b.Digest)
		}
		if c := rowCounts(a.rows); c["harness.runs"] != 2 || c["core.loads"] == 0 {
			t.Errorf("%s: counts %v", w.name, c)
		}
	}
	sz := serviceSizes{cold: 6, warm: 30, sweep: 4, direct: 2}
	a := runServiceRound(1, sz, t.TempDir(), nil, nil)
	b := runServiceRound(1, sz, t.TempDir(), nil, nil)
	if a.Failed != 0 || b.Failed != 0 {
		t.Errorf("service: failures %v %v", a.Failures, b.Failures)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("service: digests %q and %q", a.Digest, b.Digest)
	}
	if want := 6 + 30 + 4 + 4 + 2; a.Attempted != want {
		t.Errorf("service: %d ops attempted, want %d", a.Attempted, want)
	}
}

// The embedded seed-1 digests name every workload.
func TestDigestsCoverWorkloads(t *testing.T) {
	var want map[string]string
	if err := json.Unmarshal(expectedDigests, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(want[w.name]) != 64 {
			t.Errorf("testdata/digests.json has no digest for %s", w.name)
		}
	}
}

// The profile decoder charges a loop of cache.Access calls to the cache
// layer, though the loop itself is in the benchmark's package.
func TestLayerSharesOfOwnProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a quarter of a second")
	}
	p := &profiler{}
	var r roundResult
	p.start()
	stream := cacheStream(1, 1<<16)
	for i := 0; i < 200; i++ {
		benchCache(stream)
	}
	p.stop(&r)
	if len(r.Failures) != 0 {
		t.Fatal(r.Failures)
	}
	// "runtime" may be large: the race detector's samples have no Go
	// frames at all.
	for b, v := range r.Profile {
		if b != "runtime" && b != "cache" && v >= r.Profile["cache"] {
			t.Errorf("profile %v: want more samples in cache than in %s", r.Profile, b)
		}
	}
	if r.Profile["cache"] == 0 {
		t.Errorf("profile %v: no samples in cache", r.Profile)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"swsm/internal/proto/hlrc.(*Protocol).ensure":                                                                "swsm/internal/proto/hlrc",
		"swsm/internal/harness/runner.(*Pool[go.shape.struct { App string; Scale swsm/internal/apps.Scale }]).DoCtx": "swsm/internal/harness/runner",
		"main.runServiceRound.func3":                                                                                 "main",
		"runtime.mallocgc":                                                                                           "runtime",
		"net/http.(*conn).serve":                                                                                     "net/http",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
