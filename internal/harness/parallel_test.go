package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"swsm/internal/apps"
)

// TestParallelFigure3Deterministic proves the session's central claim:
// running the full Figure-3 ladder through a parallel session produces
// rows identical to a serial session — cycle counts, breakdowns,
// counters and speedups, compared as row JSON — because each simulation
// is internally single-threaded and cross-run parallelism cannot
// perturb it.
func TestParallelFigure3Deterministic(t *testing.T) {
	const app, procs = "fft", 8
	specs, labels, err := Figure3Specs(app, apps.Tiny, procs, Figure3Configs)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, BaselineSpec(app, apps.Tiny, true))
	var rowJSON [2][]byte
	var bars [2]*AppBar
	for i, parallel := range []int{1, 8} {
		points, err := NewSession(parallel).Points(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Rows(points)
		if err != nil {
			t.Fatal(err)
		}
		bars[i] = Figure3Bar(app, labels, rows)
		if rowJSON[i], err = json.Marshal(rows); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(bars[0], bars[1]) {
		t.Fatalf("bars diverged:\nserial   %+v\nparallel %+v", bars[0], bars[1])
	}
	if !bytes.Equal(rowJSON[0], rowJSON[1]) {
		t.Fatalf("rows diverged:\nserial   %s\nparallel %s", rowJSON[0], rowJSON[1])
	}
}

// TestSessionMemoizesBaseline checks the satellite requirement: the
// sequential baseline runs once per (app, scale) within a session, no
// matter how many speedups divide by it.
func TestSessionMemoizesBaseline(t *testing.T) {
	s := NewSession(2)
	seq1, err := s.Run(BaselineSpec("fft", apps.Tiny, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Speedup(func() RunSpec {
		spec := DefaultSpec("fft", HLRC)
		spec.Scale = apps.Tiny
		spec.Procs = 4
		return spec
	}()); err != nil {
		t.Fatal(err)
	}
	seq2, err := s.Run(BaselineSpec("fft", apps.Tiny, true))
	if err != nil {
		t.Fatal(err)
	}
	if seq1.Cycles != seq2.Cycles {
		t.Fatalf("baseline changed between calls: %d vs %d", seq1.Cycles, seq2.Cycles)
	}
	st := s.Stats()
	// Three requests touched the baseline key (direct, Speedup, direct);
	// exactly one executed.
	if st.Runs != 2 { // baseline + the HLRC run
		t.Fatalf("runs = %d, want 2 (baseline memoized)", st.Runs)
	}
	if st.Hits+st.Waits < 2 {
		t.Fatalf("cache hits+waits = %d, want >= 2", st.Hits+st.Waits)
	}
}
