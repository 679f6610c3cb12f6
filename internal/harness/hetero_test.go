package harness_test

import (
	"bytes"
	"cmp"
	"context"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/hetero"
)

// TestHeteroSpecComposition pins the skew x placement naming surface.
func TestHeteroSpecComposition(t *testing.T) {
	hs, err := harness.HeteroSpec("uniform", "app")
	if err != nil {
		t.Fatal(err)
	}
	if hs != (hetero.Spec{}) {
		t.Fatalf("uniform/app is not the zero spec: %+v", hs)
	}
	hs, err = harness.HeteroSpec("cpu4", "adaptive+grain")
	if err != nil {
		t.Fatal(err)
	}
	if hs.Placement != hetero.PlaceAdaptive || hs.Grain != hetero.GrainAdaptive {
		t.Fatalf("adaptive+grain not composed: %+v", hs)
	}
	if hs.SlowNum != 4 || hs.SlowDen != 1 {
		t.Fatalf("cpu4 preset not composed: %+v", hs)
	}
	if _, err := harness.HeteroSpec("warp9", "app"); err == nil {
		t.Fatal("unknown skew accepted")
	}
	if _, err := harness.HeteroSpec("uniform", "clairvoyant"); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// TestHeteroUniformIsBaseline pins that the uniform preset changes
// nothing: same memo key, same cycles as a spec that never touched the
// hetero plane.
func TestHeteroUniformIsBaseline(t *testing.T) {
	plain := harness.DefaultSpec("fft", harness.HLRC)
	plain.Scale = apps.Tiny
	plain.Procs = 4
	uni := plain
	hs, err := harness.HeteroSpec("uniform", "app")
	if err != nil {
		t.Fatal(err)
	}
	uni.Hetero = hs
	if plain.Key() != uni.Key() {
		t.Fatalf("uniform hetero spec changed the memo key: %s vs %s", plain.Key(), uni.Key())
	}
	a, err := harness.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.Run(uni)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("uniform hetero spec perturbed the run: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// heteroSweepCSV runs the reference sweep through a session of the given
// width and renders its CSV.
func heteroSweepCSV(t *testing.T, parallel int) ([]harness.HeteroPoint, []byte, *harness.Session) {
	t.Helper()
	s := harness.NewSession(parallel)
	points, err := harness.HeterogeneitySweep(context.Background(), s.Points,
		[]string{"fft", "lu"},
		[]harness.ProtocolKind{harness.HLRC, harness.SC},
		apps.Tiny, 8,
		[]string{"uniform", "cpu4"},
		[]string{"rr", "adaptive"},
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.HeterogeneityTable(points).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return points, buf.Bytes(), s
}

// TestHeteroSweepDeterministicAndWarm pins two sweep properties at once:
// the rendered CSV is byte-identical whether the sweep runs serially or
// 8-wide, and replaying the sweep against a warm session re-assembles it
// entirely from cache — zero fresh simulations.
func TestHeteroSweepDeterministicAndWarm(t *testing.T) {
	_, csv1, s := heteroSweepCSV(t, 1)
	_, csv8, _ := heteroSweepCSV(t, 8)
	if !bytes.Equal(csv1, csv8) {
		t.Fatalf("sweep CSV differs between serial and 8-wide execution:\n%s\nvs\n%s", csv1, csv8)
	}
	before := s.Stats()
	points, err := harness.HeterogeneitySweep(context.Background(), s.Points,
		[]string{"fft", "lu"},
		[]harness.ProtocolKind{harness.HLRC, harness.SC},
		apps.Tiny, 8,
		[]string{"uniform", "cpu4"},
		[]string{"rr", "adaptive"},
	)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if fresh := after.Runs - before.Runs; fresh != 0 {
		t.Fatalf("warm replay simulated %d fresh runs, want 0", fresh)
	}
	var buf bytes.Buffer
	if err := harness.HeterogeneityTable(points).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), csv1) {
		t.Fatal("warm replay rendered a different CSV")
	}
}

// TestAdaptiveBeatsStaticUnderSkew pins the subsystem's headline
// measurement: on a protocol-skewed cluster, adaptive home migration
// strictly beats static round-robin homes for a communication-heavy
// application (it pulls hot pages off the slow nodes), while on the
// uniform machine it stays within noise of static.
func TestAdaptiveBeatsStaticUnderSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("Base-scale simulations")
	}
	s := harness.NewSession(0)
	run := func(skew, placement string) int64 {
		hs, err := harness.HeteroSpec(skew, placement)
		if err != nil {
			t.Fatal(err)
		}
		spec := harness.DefaultSpec("ocean-rowwise", harness.HLRC)
		spec.Scale = apps.Base
		spec.Procs = 8
		spec.Hetero = hs
		res, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	for _, skew := range []string{"cpu4", "accel4", "mixed"} {
		rr, adaptive := run(skew, "rr"), run(skew, "adaptive")
		if adaptive >= rr {
			t.Errorf("%s: adaptive %d cycles >= static rr %d", skew, adaptive, rr)
		}
	}
}

// TestPerNodeModelDeterminismAcrossParallelism runs specs that combine
// per-node speed multipliers with per-node fault pause windows — the two
// per-node planes together — serially and 8-wide, and requires
// byte-identical cycle counts.
func TestPerNodeModelDeterminismAcrossParallelism(t *testing.T) {
	specs := func() []harness.RunSpec {
		var out []harness.RunSpec
		for _, skew := range []string{"cpu2", "accel2", "mixed"} {
			for _, placement := range []string{"rr", "adaptive"} {
				hs, err := harness.HeteroSpec(skew, placement)
				if err != nil {
					t.Fatal(err)
				}
				spec := harness.DefaultSpec("fft", harness.HLRC)
				spec.Scale = apps.Tiny
				spec.Procs = 8
				spec.Hetero = hs
				// Pause odd nodes periodically: the per-node fault plane
				// layered over the per-node machine models.
				spec.Fault = fault.Spec{
					Seed: 3, PauseEvery: 50_000, PauseFor: 2_000, PauseMask: 0xAA,
				}
				out = append(out, spec)
			}
		}
		return out
	}
	serial, errs := harness.NewSession(1).RunEach(context.Background(), specs())
	if err := cmp.Or(errs...); err != nil {
		t.Fatal(err)
	}
	wide, errs := harness.NewSession(8).RunEach(context.Background(), specs())
	if err := cmp.Or(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Cycles != wide[i].Cycles {
			t.Errorf("spec %d: serial %d cycles, 8-wide %d", i, serial[i].Cycles, wide[i].Cycles)
		}
	}
}

// TestHeteroVerdicts pins the flip-detection table on synthetic points.
func TestHeteroVerdicts(t *testing.T) {
	points := []harness.HeteroPoint{
		{App: "a", Skew: "uniform", Placement: "rr", Proto: harness.HLRC, Cycles: 100},
		{App: "a", Skew: "uniform", Placement: "rr", Proto: harness.SC, Cycles: 120},
		{App: "a", Skew: "link8", Placement: "rr", Proto: harness.HLRC, Cycles: 900},
		{App: "a", Skew: "link8", Placement: "rr", Proto: harness.SC, Cycles: 700},
		{App: "b", Skew: "uniform", Placement: "rr", Proto: harness.HLRC, Cycles: 50},
		{App: "b", Skew: "uniform", Placement: "rr", Proto: harness.SC, Cycles: 80},
		{App: "b", Skew: "link8", Placement: "rr", Proto: harness.HLRC, Cycles: 500},
		{App: "b", Skew: "link8", Placement: "rr", Proto: harness.SC, Cycles: 600},
	}
	flips := harness.HeteroVerdicts(points)
	if len(flips) != 2 {
		t.Fatalf("got %d verdict rows, want 2: %+v", len(flips), flips)
	}
	if !flips[0].Flipped || flips[0].App != "a" || flips[0].UniformBest != harness.HLRC || flips[0].SkewBest != harness.SC {
		t.Fatalf("app a verdict wrong: %+v", flips[0])
	}
	if flips[1].Flipped || flips[1].App != "b" {
		t.Fatalf("app b verdict wrong: %+v", flips[1])
	}
}
