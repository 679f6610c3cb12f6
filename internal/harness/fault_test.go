package harness_test

import (
	"bytes"
	"cmp"
	"context"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/stats"
	"swsm/internal/trace"
)

// faultedSpecs is the determinism fixture: two apps x two protocols,
// traced, under a mixed fault plan aggressive enough to exercise drops,
// duplicates, delays and pause windows.
func faultedSpecs() []harness.RunSpec {
	fs := fault.Spec{
		Seed: 99, DropPPM: 20_000, DupPPM: 10_000,
		DelayPPM: 20_000, DelayMax: 5_000,
		PauseEvery: 100_000, PauseFor: 5_000,
	}
	var specs []harness.RunSpec
	for _, app := range []string{"fft", "lu"} {
		for _, prot := range []harness.ProtocolKind{harness.HLRC, harness.SC} {
			s := harness.DefaultSpec(app, prot)
			s.Scale = apps.Tiny
			s.Procs = 4
			s.Trace = true
			s.Fault = fs
			specs = append(specs, s)
		}
	}
	return specs
}

// runFaulted executes the fixture at the given session width and
// serializes cycles, counters and the full event traces.
func runFaulted(t *testing.T, parallel int) (cycles []int64, rx []int64, traces []byte) {
	t.Helper()
	specs := faultedSpecs()
	s := harness.NewSession(parallel)
	results, errs := s.RunEach(context.Background(), specs)
	if err := cmp.Or(errs...); err != nil {
		t.Fatal(err)
	}
	var runs []trace.Run
	for i, res := range results {
		cycles = append(cycles, res.Cycles)
		rx = append(rx, res.Stats.TotalCount(stats.Retransmits))
		runs = append(runs, trace.Run{
			Label: specs[i].App + "/" + string(specs[i].Protocol),
			Data:  res.Trace,
		})
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, runs); err != nil {
		t.Fatal(err)
	}
	return cycles, rx, buf.Bytes()
}

// TestFaultDeterminismAcrossParallelism pins the fault plane's
// load-bearing property: the same FaultSpec produces byte-identical
// runs — cycles, retransmit counts and full event traces — whether the
// sweep executes serially or 8-wide.
func TestFaultDeterminismAcrossParallelism(t *testing.T) {
	c1, rx1, tr1 := runFaulted(t, 1)
	c8, rx8, tr8 := runFaulted(t, 8)
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Errorf("run %d: %d cycles serial vs %d cycles 8-wide", i, c1[i], c8[i])
		}
		if rx1[i] != rx8[i] {
			t.Errorf("run %d: %d retransmits serial vs %d 8-wide", i, rx1[i], rx8[i])
		}
	}
	if !bytes.Equal(tr1, tr8) {
		t.Fatal("faulted event traces differ between serial and 8-wide execution")
	}
	// The plan must actually have bitten somewhere, or the test proves
	// nothing.
	var total int64
	for _, v := range rx1 {
		total += v
	}
	if total == 0 {
		t.Fatal("fault fixture induced no retransmissions")
	}
}

// TestZeroFaultReliablePin pins the wrapper's pass-through: forcing the
// reliable transport with nothing injected must be cycle-identical to
// the plain network and produce zero transport traffic.
func TestZeroFaultReliablePin(t *testing.T) {
	spec := harness.DefaultSpec("fft", harness.HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 4
	plain, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Fault = fault.Spec{Reliable: true}
	pinned, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Cycles != plain.Cycles {
		t.Fatalf("reliable wrapper perturbed the zero-fault run: %d vs %d cycles",
			pinned.Cycles, plain.Cycles)
	}
	for _, c := range []stats.Counter{stats.Retransmits, stats.MsgsDropped, stats.AcksSent, stats.DupsSuppressed} {
		if v := pinned.Stats.TotalCount(c); v != 0 {
			t.Fatalf("zero-fault pinned run shows transport counter %v = %d", c, v)
		}
	}
	if pinned.Stats.TotalCount(stats.MsgsSent) != plain.Stats.TotalCount(stats.MsgsSent) {
		t.Fatal("pinned run sent a different number of protocol messages")
	}
}

// TestFaultedRunsStillVerify is the correctness oracle across the
// protocol matrix: with drops and node pauses injected, every protocol
// must still compute the application's reference answers (Run verifies
// them) while showing real retransmission work.
func TestFaultedRunsStillVerify(t *testing.T) {
	fs := fault.Spec{Seed: 7, DropPPM: 15_000, PauseEvery: 200_000, PauseFor: 10_000}
	for _, app := range []string{"fft", "lu"} {
		for _, prot := range []harness.ProtocolKind{harness.HLRC, harness.SC, harness.LRC} {
			spec := harness.DefaultSpec(app, prot)
			spec.Scale = apps.Tiny
			spec.Procs = 4
			spec.Fault = fs
			res, err := harness.Run(spec)
			if err != nil {
				t.Fatalf("%s on %s under faults: %v", app, prot, err)
			}
			if res.Stats.TotalCount(stats.Retransmits) == 0 {
				t.Errorf("%s on %s: no retransmissions under 1.5%% drops", app, prot)
			}
			if res.Stats.TotalCount(stats.AcksSent) == 0 {
				t.Errorf("%s on %s: no acks under active injection", app, prot)
			}
		}
	}
}

// TestDegradationSweep runs the headline experiment at tiny scale and
// checks its structure: one point per (app, proto, rate) in
// deterministic order, baselines attached, retransmits present at the
// higher rates.
func TestDegradationSweep(t *testing.T) {
	s := harness.NewSession(0)
	points, err := harness.DegradationSweep(context.Background(), s.Points,
		[]string{"fft"}, []harness.ProtocolKind{harness.HLRC}, apps.Tiny, 4,
		1, []int64{5_000, 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for i, p := range points {
		if p.App != "fft" || p.Proto != harness.HLRC {
			t.Fatalf("point %d labeled %s/%s", i, p.App, p.Proto)
		}
		if p.BaseCycles <= 0 || p.Cycles <= 0 {
			t.Fatalf("point %d missing cycle data: %+v", i, p)
		}
	}
	if points[0].DropPPM != 5_000 || points[1].DropPPM != 20_000 {
		t.Fatalf("points out of rate order: %+v", points)
	}
	if points[1].Retransmits == 0 {
		t.Fatal("2% drops induced no retransmissions")
	}
	var buf bytes.Buffer
	if err := harness.DegradationTable(points).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 points", got)
	}
}
