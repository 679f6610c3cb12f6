package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"swsm/internal/stats"
	"swsm/internal/trace"
)

// CheckGolden lets the external test package compare against the same
// testdata goldens.
var CheckGolden = checkGolden

func checkGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestWriteBreakdownTimelineCSVGolden(t *testing.T) {
	m := stats.New(2)
	s := &trace.Sampler{Every: 100}
	m.Add(0, stats.Busy, 50)
	m.Add(1, stats.LockWait, 20)
	s.Snapshot(100, m)
	m.Add(0, stats.Busy, 10)
	s.Snapshot(200, m)

	var buf bytes.Buffer
	if err := BreakdownTimelineTable(s.Rows()).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "breakdown_timeline.golden.csv")
}

// hotProfile is a small hand-built profile: two pages (one with a
// fault, diff, twin and invalidation), two locks and one barrier.
func hotProfile() *trace.Profile {
	tr := trace.New(trace.Options{Profile: true})
	tr.PageFetch(0, 100, 0, 5)
	tr.PageFetch(0, 300, 1, 9)
	tr.DiffCreate(10, 0, 5, 4) // 4 words = 32 bytes
	tr.PageFault(5, 0, 5, true)
	tr.Twin(6, 0, 5)
	tr.Invalidate(7, 2, 5)
	tr.LockWait(0, 50, 0, 1)
	tr.LockWait(0, 70, 1, 4)
	tr.BarrierWait(0, 500, 0, 0)
	return tr.Data().Hot
}

func TestWriteHotObjectsCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := HotObjectsTable(hotProfile(), 0).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "hot_objects.golden.csv")
}

// TestFormatHotObjects pins the text report both CLIs print.
func TestFormatHotObjects(t *testing.T) {
	got := FormatHotObjects(hotProfile(), 0)
	want := "  page      9: faults 0, fetches 1 (wait 300 cy), diffs 0 (0 B), twins 0, invals 0\n" +
		"  page      5: faults 1, fetches 1 (wait 100 cy), diffs 1 (32 B), twins 1, invals 1\n" +
		"  lock      4: acquires 1, wait 70 cy\n" +
		"  lock      1: acquires 1, wait 50 cy\n" +
		"  barrier    0: episodes 1, wait 500 cy\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteHotObjectsCSVTopK(t *testing.T) {
	tr := trace.New(trace.Options{Profile: true})
	for u := int64(0); u < 5; u++ {
		tr.PageFetch(0, (u+1)*10, 0, u)
	}
	var buf bytes.Buffer
	if err := HotObjectsTable(tr.Data().Hot, 2).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 3 { // header + 2 page rows
		t.Fatalf("top-2 emitted %d lines:\n%s", lines, buf.String())
	}
}
