package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/stats"
)

// TestRunRowRoundTrip pins the wire format's fidelity: a row survives a
// JSON round trip with its spec intact (so a service request rebuilt
// from a stored row hits the same content key), and serialization is
// byte-deterministic (so store payloads for one spec are identical).
func TestRunRowRoundTrip(t *testing.T) {
	spec := DefaultSpec("fft", HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 4
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := NewRunRow(res).WithSpeedup(3 * res.Cycles)

	var buf1, buf2 bytes.Buffer
	if err := WriteRunRowJSON(&buf1, row); err != nil {
		t.Fatal(err)
	}
	if err := WriteRunRowJSON(&buf2, row); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("RunRow serialization is not deterministic")
	}

	var back RunRow
	if err := json.Unmarshal(buf1.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != spec {
		t.Fatalf("spec did not round-trip: got %+v, want %+v", back.Spec, spec)
	}
	if back.Spec.Key() != row.Key {
		t.Fatalf("round-tripped spec key %s != recorded key %s", back.Spec.Key(), row.Key)
	}
	if back.Cycles != res.Cycles || back.SeqCycles != 3*res.Cycles {
		t.Fatalf("cycles did not round-trip: %+v", back)
	}
	if back.Speedup != 3.0 {
		t.Fatalf("speedup = %v, want 3.0", back.Speedup)
	}
	if back.Breakdown["busy"] <= 0 {
		t.Fatalf("breakdown lost busy cycles: %v", back.Breakdown)
	}
	if back.Counters["msgsSent"] <= 0 {
		t.Fatalf("counters lost msgsSent: %v", back.Counters)
	}
}

// TestFormatRunRow pins the one text report svmsim prints in process
// and from a daemon: a row and its JSON round trip render the same
// text, and counters print as name=total sorted by name.
func TestFormatRunRow(t *testing.T) {
	spec := DefaultSpec("fft", HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 4
	spec.Check = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := NewRunRow(res).WithSpeedup(2 * res.Cycles)
	var buf bytes.Buffer
	if err := WriteRunRowJSON(&buf, row); err != nil {
		t.Fatal(err)
	}
	var back RunRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	text := FormatRunRow(row, "AO", "tiny", "  a note")
	if got := FormatRunRow(back, "AO", "tiny", "  a note"); got != text {
		t.Fatalf("round-tripped row renders differently:\n%s\nwant:\n%s", got, text)
	}
	for _, want := range []string{
		fmt.Sprintf("fft on hlrc, 4 procs, config AO (scale tiny)\n  a note\n  cycles:   %d (sequential %d)\n  speedup:  2.00\n",
			res.Cycles, 2*res.Cycles),
		fmt.Sprintf(" msgsSent=%d ", res.Stats.TotalCount(stats.MsgsSent)),
		"\n  consistency: RC: ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}

	m := stats.New(2)
	m.Inc(0, stats.DiffsCreated, 3)
	m.Inc(1, stats.DiffsCreated, 4)
	m.Inc(1, stats.MsgsSent, 1)
	text = FormatRunRow(NewRunRow(&Result{Spec: spec, Stats: m}), "AO", "tiny")
	if want := "\n  counters: diffsCreated=7 msgsSent=1\n"; !strings.Contains(text, want) {
		t.Errorf("report lacks %q:\n%s", want, text)
	}
}

// TestDecodeRow pins the stored-row guard every cache tier shares: only
// a row that decodes and is the requested spec's row is accepted.
func TestDecodeRow(t *testing.T) {
	spec := DefaultSpec("fft", HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 4
	other := spec
	other.Procs = 8
	payload := func(s RunSpec) []byte {
		b, err := json.Marshal(RunRow{Key: s.Key(), Spec: s, Cycles: 1234})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"corrupt bytes", []byte(`{"key":"v2-`), false},
		{"another spec's row", payload(other), false},
		{"the spec's row", payload(spec), true},
	} {
		row, ok := DecodeRow(tc.payload, spec)
		if ok != tc.ok || (row != nil) != tc.ok {
			t.Errorf("%s: DecodeRow = %v, %v; want ok=%v", tc.name, row, ok, tc.ok)
			continue
		}
		if ok && (row.Spec != spec || row.Cycles != 1234) {
			t.Errorf("%s: decoded %+v", tc.name, row)
		}
	}
}
