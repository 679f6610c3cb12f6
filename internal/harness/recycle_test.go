package harness

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"swsm/internal/apps"
	"swsm/internal/fault"
)

// recycleSpecs is a sequence that hands each run a previous run's
// released buffers of another shape: a Base/16p Figure-3 ladder cell,
// then Tiny cells at 2, 4 and 8 processors (checked, faulted, ideal and
// adaptive among them), then the first cell again.
func recycleSpecs(t *testing.T) []RunSpec {
	t.Helper()
	first := DefaultSpec("fft", HLRC)
	tiny := func(app string, p ProtocolKind, procs int) RunSpec {
		s := DefaultSpec(app, p)
		s.Scale, s.Procs = apps.Tiny, procs
		return s
	}
	checked := tiny("radix", LRC, 4)
	checked.Check = true
	faulted := FaultedSpec(tiny("ocean", SC, 8), 3, 10_000)
	adaptive := tiny("water-nsquared", HLRC, 8)
	hs, err := HeteroSpec("mixed", "adaptive")
	if err != nil {
		t.Fatal(err)
	}
	adaptive.Hetero = hs
	adaptive.Check = true
	return []RunSpec{
		first,
		tiny("lu", HLRC, 2),
		checked,
		tiny("fft", Ideal, 4),
		faulted,
		adaptive,
		first,
	}
}

func rowJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(NewRunRow(res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// failedSpec is an fft Tiny/16p run on a fabric that drops every
// transmission, so the reliable transport fails it mid-run with every
// processor's coroutine suspended.
func failedSpec() RunSpec {
	s := FaultedSpec(DefaultSpec("fft", HLRC), 1, fault.PPM)
	s.Scale = apps.Tiny
	return s
}

func runFailed(t *testing.T) {
	t.Helper()
	if _, err := Run(failedSpec()); err == nil || !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("run with every transmission dropped returned %v, want an undeliverable error", err)
	}
}

// TestRecycledBuffersKeepRowsIdentical runs a sequence of differently
// shaped runs in one process, serially and then through a parallel
// session, so that each run reuses caches, frames and checker tables
// released by runs of other sizes — the first of them by a run that
// failed.  Every row must be byte-identical to its spec's first run.
func TestRecycledBuffersKeepRowsIdentical(t *testing.T) {
	runFailed(t)
	specs := recycleSpecs(t)
	first := make(map[string][]byte)
	for _, spec := range specs {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := rowJSON(t, res)
		if want, ok := first[spec.Key()]; !ok {
			first[spec.Key()] = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%s: rerun row differs:\n got %s\nwant %s", spec.Key(), got, want)
		}
	}
	res, errs := NewSession(4).RunEach(context.Background(), specs)
	if err := cmp.Or(errs...); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if got, want := rowJSON(t, r), first[specs[i].Key()]; !bytes.Equal(got, want) {
			t.Fatalf("%s: parallel row differs:\n got %s\nwant %s", specs[i].Key(), got, want)
		}
	}
}

// TestWholeRunAllocs bounds the heap allocations of one whole run once
// the pools are warm.  Allocation counts are deterministic to within one
// or two of runtime jitter, so unlike host time they can be gated
// exactly: a single allocation per simulated access adds tens of
// thousands.  The ceilings are 870 and 1157 allocations plus 1%.
func TestWholeRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		app     string
		ceiling float64
	}{
		{"fft", 878},
		{"lu", 1168},
	} {
		t.Run(tc.app, func(t *testing.T) {
			spec := DefaultSpec(tc.app, HLRC)
			spec.Scale, spec.Procs = apps.Tiny, 4
			run := func() {
				if _, err := Run(spec); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pools
			n := testing.AllocsPerRun(5, run)
			t.Logf("%.0f allocations per run", n)
			if n > tc.ceiling {
				t.Fatalf("%.0f allocations per run, want at most %.0f", n, tc.ceiling)
			}
		})
	}
}

// TestFailedRunsLeaveNoGoroutines checks that a failed run leaves none
// of its coroutines parked behind it: after 20 runs that the transport
// fails mid-run, the goroutine count is back at its baseline.
func TestFailedRunsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		runFailed(t)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after 20 failed runs, want the baseline %d", n, base)
	}
}
