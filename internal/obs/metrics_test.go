package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact text exposition rendered for one
// of every instrument kind: a scraper (and the CI smoke test) parses
// this format, so its shape is a compatibility surface.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	done := r.Counter("jobs_total", "Jobs by state.", `state="done"`)
	failed := r.Counter("jobs_total", "Jobs by state.", `state="failed"`)
	depth := r.Gauge("queue_depth", "Queued jobs.", "")
	r.GaugeFunc("workers", "Worker count.", "", func() float64 { return 4 })
	h := r.Histogram("wait_seconds", "Queue wait.", "", []float64{0.01, 0.1, 1})

	done.Add(3)
	failed.Inc()
	depth.Set(2.5)
	h.Observe(0.005) // le 0.01
	h.Observe(0.05)  // le 0.1
	h.Observe(0.5)   // le 1
	h.Observe(7)     // +Inf only

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Jobs by state.
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="failed"} 1
# HELP queue_depth Queued jobs.
# TYPE queue_depth gauge
queue_depth 2.5
# HELP wait_seconds Queue wait.
# TYPE wait_seconds histogram
wait_seconds_bucket{le="0.01"} 1
wait_seconds_bucket{le="0.1"} 2
wait_seconds_bucket{le="1"} 3
wait_seconds_bucket{le="+Inf"} 4
wait_seconds_sum 7.555
wait_seconds_count 4
# HELP workers Worker count.
# TYPE workers gauge
workers 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionVecGolden pins the labeled-family exposition the
// cluster metrics rely on: per-worker series materialize on first With,
// a family registered before any series still exposes its HELP/TYPE
// header, and runtime label values (worker IDs) are escaped.
func TestExpositionVecGolden(t *testing.T) {
	r := NewRegistry()
	stolen := r.CounterVec("jobs_stolen_total", "Jobs stolen, by thief.", "worker")
	depth := r.GaugeVec("worker_queue_depth", "Dispatch queue depth.", "worker")
	r.CounterVec("failovers_total", "Failovers.", "node") // pinned, zero series

	stolen.With("w1").Add(2)
	stolen.With(`odd"w\`).Inc() // hostile worker ID: quote and backslash
	depth.With("w1").Set(3)
	depth.With("w2").Set(0)
	// With is memoized: the same label value is one series, not two.
	stolen.With("w1").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP failovers_total Failovers.
# TYPE failovers_total counter
# HELP jobs_stolen_total Jobs stolen, by thief.
# TYPE jobs_stolen_total counter
jobs_stolen_total{worker="w1"} 3
jobs_stolen_total{worker="odd\"w\\"} 1
# HELP worker_queue_depth Dispatch queue depth.
# TYPE worker_queue_depth gauge
worker_queue_depth{worker="w1"} 3
worker_queue_depth{worker="w2"} 0
`
	if got := sb.String(); got != want {
		t.Errorf("vec exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Nil vecs follow the disabled-observability contract end to end.
	var nc *CounterVec
	var ng *GaugeVec
	nc.With("x").Inc()
	ng.With("x").Set(1)
	if nc.With("x").Value() != 0 || ng.With("x").Value() != 0 {
		t.Error("nil vec instruments reported nonzero values")
	}
}

// TestExpositionDeterministic verifies two scrapes of the same state
// are byte-identical (families sort by name, series keep registration
// order).
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta_total", "alpha_total", "mid_total"} {
		r.Counter(name, "c", "").Add(7)
	}
	var a, b strings.Builder
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatalf("scrapes differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.HasPrefix(a.String(), "# HELP alpha_total") {
		t.Errorf("families not sorted by name:\n%s", a.String())
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines —
// the shape of concurrent jobs finishing at once — and verifies no
// observation is lost or misbucketed and the sum converges exactly
// (the values are chosen binary-representable, so float addition is
// associative here).
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", "", []float64{0.25, 0.5, 1})
	const workers = 8
	const perWorker = 10000
	vals := []float64{0.125, 0.375, 0.75, 2} // one per bucket incl. +Inf
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(vals[i%len(vals)])
			}
		}()
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if h.Count() != total {
		t.Errorf("count = %d, want %d", h.Count(), total)
	}
	per := total / int64(len(vals))
	for i, want := range []int64{per, per, per, per} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	wantSum := float64(per) * (0.125 + 0.375 + 0.75 + 2)
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// TestHistogramBucketEdges verifies le (inclusive upper bound)
// semantics at exact bucket boundaries.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", "", []float64{1, 2})
	h.Observe(1)                    // le="1"
	h.Observe(2)                    // le="2"
	h.Observe(math.Nextafter(2, 3)) // +Inf
	for i, want := range []int64{1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

// TestTypeConflictPanics pins the registration-time guard: one name,
// one type.
func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering x as both counter and gauge did not panic")
		}
	}()
	r.Gauge("x", "x", "")
}

// TestNilInstruments verifies every instrument is a usable no-op when
// nil — the disabled-observability contract.
func TestNilInstruments(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported nonzero values")
	}
}

// Zero-allocation guarantees for the disabled paths: nil instruments
// must cost a branch, not a heap object, because they sit on paths the
// simulator hits millions of times.
func TestDisabledPathAllocs(t *testing.T) {
	var c *Counter
	var h *Histogram
	var sp *Spans
	var f *Flight
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Histogram.Observe", func() { h.Observe(1) }},
		{"Spans.Add", func() { sp.Add("x", zeroTime, zeroTime) }},
		{"Flight.Record", func() { f.Record("j", "s", "") }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("nil %s allocates %v times per call", tc.name, n)
		}
	}
}

// Enabled hot-path instruments must also be allocation-free — Observe
// runs on every job and every pool slot.
func TestEnabledInstrumentAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c", "")
	h := r.Histogram("h", "h", "", DefBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.01) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v times per call", n)
	}
}

func BenchmarkDisabledHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1)
	}
}

func BenchmarkEnabledHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "h", "", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.01)
	}
}

func BenchmarkDisabledFlightRecord(b *testing.B) {
	var f *Flight
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record("j1", "running", "")
	}
}

// A scrape-time callback may take its owner's lock while the owner,
// holding that lock, registers a new series: the scrape renders outside
// the registry's lock.
func TestScrapeCallbackMayTakeOwnerLock(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	inFn := make(chan struct{})
	r.GaugeFunc("owned", "Reads owner state.", "", func() float64 {
		close(inFn)
		mu.Lock()
		defer mu.Unlock()
		return 1
	})
	mu.Lock()
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		r.WritePrometheus(io.Discard)
	}()
	<-inFn
	registered := make(chan struct{})
	go func() {
		defer close(registered)
		r.Counter("late_total", "Registered under the owner's lock.", "")
	}()
	select {
	case <-registered:
	case <-time.After(5 * time.Second):
		t.Fatal("registration blocked behind a scrape waiting on the owner's lock")
	}
	mu.Unlock()
	<-scraped
}
