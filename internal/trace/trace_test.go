package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"swsm/internal/stats"
)

func TestNilTracerHooksAreNoOps(t *testing.T) {
	var tr *Tracer
	// Every hook must be callable on the disabled (nil) tracer.
	tr.ThreadState(1, 0, StateRunning)
	tr.MsgSend(1, 0, 1, 64)
	tr.MsgRecv(1, 0, 1, 2)
	tr.PageFault(1, 0, 7, true)
	tr.PageFetch(1, 2, 0, 7)
	tr.DiffCreate(1, 0, 7, 3)
	tr.DiffApply(1, 0, 7, 3)
	tr.Twin(1, 0, 7)
	tr.Invalidate(1, 0, 7)
	tr.LockWait(1, 2, 0, 3)
	tr.LockRelease(2, 0, 3)
	tr.BarrierWait(1, 2, 0, 0)
	tr.Handler(1, 2, 0, 1)
	tr.SampleNow(10, stats.New(1))
	if tr.Data() != nil || tr.Profiler() != nil || tr.Sampler() != nil {
		t.Fatal("nil tracer must report empty state")
	}
}

func TestNilTracerHooksDoNotAllocate(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.PageFault(1, 0, 7, true)
		tr.LockWait(1, 2, 0, 3)
		tr.ThreadState(1, 0, StateBlocked)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer hooks allocated %.1f/op, want 0", allocs)
	}
}

func TestEventsInEmissionOrder(t *testing.T) {
	tr := New(Options{})
	for i := int64(0); i < 10; i++ {
		tr.MsgSend(i, 0, i, 8)
	}
	d := tr.Data()
	if len(d.Events) != 10 {
		t.Fatalf("captured %d events, want 10", len(d.Events))
	}
	for i, ev := range d.Events {
		if ev.At != int64(i) || ev.Arg != int64(i) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

func TestSamplerDeltas(t *testing.T) {
	m := stats.New(2)
	s := &Sampler{Every: 100}
	m.Add(0, stats.Busy, 50)
	m.Add(1, stats.LockWait, 20)
	s.Snapshot(100, m)
	m.Add(0, stats.Busy, 10)
	s.Snapshot(200, m)
	s.Snapshot(200, m) // same-cycle collapse
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Delta[stats.Busy] != 50 || rows[0].Delta[stats.LockWait] != 20 {
		t.Fatalf("first sample wrong: %+v", rows[0])
	}
	if rows[1].Delta[stats.Busy] != 10 || rows[1].Delta[stats.LockWait] != 0 {
		t.Fatalf("second sample must hold deltas, not totals: %+v", rows[1])
	}
}

func TestProfilerRanksDeterministically(t *testing.T) {
	tr := New(Options{Profile: true})
	tr.PageFetch(0, 100, 0, 5) // unit 5: wait 100
	tr.PageFetch(0, 300, 1, 9) // unit 9: wait 300
	tr.PageFetch(0, 100, 2, 2) // unit 2: wait 100 (ties unit 5; lower id first)
	tr.DiffCreate(10, 0, 5, 4) // 32 diff bytes on unit 5
	tr.LockWait(0, 50, 0, 1)
	tr.LockWait(0, 70, 1, 4)
	tr.BarrierWait(0, 500, 0, 0)
	hot := tr.Data().Hot
	if got := []int64{hot.Pages[0].ID, hot.Pages[1].ID, hot.Pages[2].ID}; got[0] != 9 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("page ranking wrong: %v (want 9, 5, 2)", got)
	}
	if hot.Pages[1].DiffBytes != 32 {
		t.Fatalf("diff bytes = %d, want 32", hot.Pages[1].DiffBytes)
	}
	if hot.Locks[0].ID != 4 || hot.Locks[1].ID != 1 {
		t.Fatalf("lock ranking wrong: %+v", hot.Locks)
	}
	if len(hot.Barriers) != 1 || hot.Barriers[0].Wait != 500 {
		t.Fatalf("barrier profile wrong: %+v", hot.Barriers)
	}
	if top := hot.TopPages(2); len(top) != 2 || top[0].ID != 9 {
		t.Fatalf("TopPages(2) wrong: %+v", top)
	}
}

func TestChromeSinkEmitsValidLoadableJSON(t *testing.T) {
	tr := New(Options{})
	tr.ThreadState(0, 0, StateStarted)
	tr.LockWait(10, 60, 0, 3)
	tr.PageFault(70, 1, 12, true)
	tr.BarrierWait(80, 200, 1, 0)
	d := tr.Data()
	d.Procs = 2

	var buf bytes.Buffer
	if err := WriteChrome(&buf, "unit test", d); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 2 thread_name metas + 4 events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("traceEvents = %d, want 7", len(doc.TraceEvents))
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	want := []string{"M", "M", "M", "i", "X", "i", "X"}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

func TestJSONLSinkOneValidObjectPerLine(t *testing.T) {
	tr := New(Options{})
	tr.MsgSend(5, 2, 1, 64)
	tr.PageFetch(10, 40, 0, 7)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Run{{Label: "r", Data: tr.Data()}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var obj map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["kind"] != "pageFetch" || obj["dur"].(float64) != 30 {
		t.Fatalf("jsonl line wrong: %v", obj)
	}
}

func TestSerializationIsByteIdentical(t *testing.T) {
	mk := func() *Data {
		tr := New(Options{Profile: true, SampleEvery: 100})
		tr.LockWait(10, 60, 0, 3)
		tr.PageFault(70, 1, 12, false)
		tr.DiffCreate(90, 1, 12, 8)
		d := tr.Data()
		d.Procs = 2
		return d
	}
	var a, b bytes.Buffer
	if err := WriteChromeMulti(&a, []Run{{"x", mk()}, {"y", mk()}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeMulti(&b, []Run{{"x", mk()}, {"y", mk()}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event sequences serialized to different bytes")
	}
}
