package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"swsm/internal/stats"
	"swsm/internal/trace"
)

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
	if err := WriteBreakdownTimelineCSV(&buf, s.Rows()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "breakdown_timeline.golden.csv")
}

func TestWriteHotObjectsCSVGolden(t *testing.T) {
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

	var buf bytes.Buffer
	if err := WriteHotObjectsCSV(&buf, tr.Data().Hot, 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "hot_objects.golden.csv")
}

func TestWriteHotObjectsCSVTopK(t *testing.T) {
	tr := trace.New(trace.Options{Profile: true})
	for u := int64(0); u < 5; u++ {
		tr.PageFetch(0, (u+1)*10, 0, u)
	}
	var buf bytes.Buffer
	if err := WriteHotObjectsCSV(&buf, tr.Data().Hot, 2); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 3 { // header + 2 page rows
		t.Fatalf("top-2 emitted %d lines:\n%s", lines, buf.String())
	}
}
