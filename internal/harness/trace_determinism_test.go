package harness_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/harness"
	"swsm/internal/trace"
)

// renderTraces runs the traced FFT ladder through a session with the
// given parallelism and serializes both trace formats.
func renderTraces(t *testing.T, parallel int) (chrome, jsonl []byte) {
	t.Helper()
	specs, labels, err := harness.TracedConfigSpecs(
		"fft", apps.Tiny, 4, []harness.LayerConfig{{"A", "O"}, {"B", "B"}}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewSession(parallel)
	results, errs := s.RunEach(context.Background(), specs)
	if err := cmp.Or(errs...); err != nil {
		t.Fatal(err)
	}
	runs := harness.TraceRuns(labels, results)
	if len(runs) != len(specs) {
		t.Fatalf("traced %d of %d runs", len(runs), len(specs))
	}
	var cb, jb bytes.Buffer
	if err := trace.WriteChromeMulti(&cb, runs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&jb, runs); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestTraceDeterminism pins the load-bearing property of the trace
// layer: the same RunSpecs produce byte-identical trace files whether
// the runs execute serially or 8-wide through the parallel runner.
func TestTraceDeterminism(t *testing.T) {
	chromeSerial, jsonlSerial := renderTraces(t, 1)
	chromeWide, jsonlWide := renderTraces(t, 8)
	if !bytes.Equal(chromeSerial, chromeWide) {
		t.Fatal("chrome trace differs between serial and 8-wide execution")
	}
	if !bytes.Equal(jsonlSerial, jsonlWide) {
		t.Fatal("jsonl trace differs between serial and 8-wide execution")
	}

	// The chrome output must also be loadable JSON with real events.
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeSerial, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("suspiciously few trace events: %d", len(doc.TraceEvents))
	}
}

// TestTracedRunCarriesProfileAndTimeline checks that a traced run's
// Result exposes all three observability products.
func TestTracedRunCarriesProfileAndTimeline(t *testing.T) {
	spec := harness.DefaultSpec("fft", harness.HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 4
	spec.Trace = true
	spec.TraceSample = 5000
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Trace
	if d == nil || len(d.Events) == 0 {
		t.Fatal("traced run captured no events")
	}
	if d.Procs != 4 {
		t.Fatalf("trace procs = %d, want 4", d.Procs)
	}
	if d.Hot == nil || len(d.Hot.Pages) == 0 {
		t.Fatal("traced run has no hot-page profile")
	}
	if len(d.Samples) == 0 {
		t.Fatal("traced run has no breakdown timeline")
	}
	// Timeline deltas must sum to the end-of-run breakdown.
	var fromSamples, fromStats int64
	for _, s := range d.Samples {
		for _, v := range s.Delta {
			fromSamples += v
		}
	}
	fromStats = res.Stats.GrandTotal()
	if fromSamples != fromStats {
		t.Fatalf("timeline sums to %d cycles, breakdown has %d", fromSamples, fromStats)
	}

	// An untraced run of the same spec must not carry trace data (and
	// memoization must keep the two separate).
	spec.Trace = false
	spec.TraceSample = 0
	plain, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run carries trace data")
	}
	if plain.Cycles != res.Cycles {
		t.Fatalf("tracing perturbed the simulation: %d vs %d cycles", plain.Cycles, res.Cycles)
	}
}
