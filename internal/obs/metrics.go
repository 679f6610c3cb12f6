package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is a dependency-free Prometheus client: just enough of the
// text exposition format (version 0.0.4) for a scraper to consume the
// daemon's counters, gauges and latency histograms.  Deliberate
// restrictions keep it small and deterministic:
//
//   - Label sets are preformatted strings (`state="done"`), fixed at
//     registration — there is no dynamic label cardinality to leak.
//   - Families render in sorted name order and series in registration
//     order, so two scrapes of the same state are byte-identical.
//   - Instruments are lock-free atomics; scraping never contends with
//     the hot path that increments them.

// DefBuckets are the default latency buckets (seconds), spanning the
// sub-millisecond store hits to the multi-second large-scale runs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// CountBuckets suit small nonnegative counts (retransmits per job,
// fan-out sizes).
var CountBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250}

// Counter is a monotonically increasing metric.
type Counter struct {
	labels string
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w *bufio.Writer, name string) {
	writeSeries(w, name, "", c.labels, strconv.FormatInt(c.v.Load(), 10))
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	labels string
	bits   atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w *bufio.Writer, name string) {
	writeSeries(w, name, "", g.labels, formatFloat(g.Value()))
}

// funcMetric samples a callback at scrape time — the bridge to state
// that already has its own synchronized source of truth (queue depth,
// store counters, runtime.MemStats).
type funcMetric struct {
	labels string
	fn     func() float64
}

func (f *funcMetric) write(w *bufio.Writer, name string) {
	writeSeries(w, name, "", f.labels, formatFloat(f.fn()))
}

// Histogram is a fixed-bucket latency/size distribution.  Observe is
// lock-free and allocation-free; rendering reports cumulative buckets,
// sum and count per the exposition format.
type Histogram struct {
	labels string
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) write(w *bufio.Writer, name string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeSeries(w, name+"_bucket", `le="`+formatFloat(b)+`"`, h.labels,
			strconv.FormatInt(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSeries(w, name+"_bucket", `le="+Inf"`, h.labels, strconv.FormatInt(cum, 10))
	writeSeries(w, name+"_sum", "", h.labels, formatFloat(h.Sum()))
	writeSeries(w, name+"_count", "", h.labels, strconv.FormatInt(h.count.Load(), 10))
}

// metric is one registered series.
type metric interface {
	write(w *bufio.Writer, name string)
}

// family groups every series registered under one metric name.
type family struct {
	name, help, typ string
	series          []metric
}

// Registry holds registered metrics and renders them in the Prometheus
// text exposition format.  Registration is expected at construction
// time; instruments themselves are lock-free afterwards.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register attaches a series to its (possibly new) family, enforcing
// one type and help string per name.
func (r *Registry) register(name, help, typ string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, m)
}

// Counter registers a counter series.  labels is a preformatted label
// block without braces (`state="done"`), or "".
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{labels: labels}
	r.register(name, help, "counter", c)
	return c
}

// Gauge registers a settable gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	g := &Gauge{labels: labels}
	r.register(name, help, "gauge", g)
	return g
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "gauge", &funcMetric{labels: labels, fn: fn})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for sources that already maintain monotone counts (store
// stats, runner stats, GC totals).
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "counter", &funcMetric{labels: labels, fn: fn})
}

// Histogram registers a histogram series over the given bucket upper
// bounds (ascending; +Inf appended implicitly).  bounds must not be
// empty; DefBuckets serves latencies in seconds.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		labels: labels,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(name, help, "histogram", h)
	return h
}

// CounterVec is a family of counters distinguished by one variable
// label whose values appear at runtime — per-worker series of the
// cluster coordinator, where worker IDs are not known at registration.
// Cardinality is expected to stay small and bounded (cluster
// membership, not request attributes); each distinct value registers a
// series that lives for the registry's lifetime.
type CounterVec struct {
	reg        *Registry
	name, help string
	label      string
	mu         sync.Mutex
	byValue    map[string]*Counter
}

// CounterVec registers a counter family whose series are materialized
// per label value by With.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{reg: r, name: name, help: help, label: label,
		byValue: make(map[string]*Counter)}
	// Pin the family's name/help/type now so the exposition shows it
	// (with zero series) before the first With.
	r.mu.Lock()
	if _, ok := r.fams[name]; !ok {
		r.fams[name] = &family{name: name, help: help, typ: "counter"}
	}
	r.mu.Unlock()
	return v
}

// With returns the counter for one label value, registering it on first
// use.  Safe for concurrent use; nil-safe like the instruments.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.byValue[value]; ok {
		return c
	}
	c := v.reg.Counter(v.name, v.help, v.label+`="`+escapeLabel(value)+`"`)
	v.byValue[value] = c
	return c
}

// GaugeVec is CounterVec for gauges (per-worker queue depth, in-flight
// leases).
type GaugeVec struct {
	reg        *Registry
	name, help string
	label      string
	mu         sync.Mutex
	byValue    map[string]*Gauge
}

// GaugeVec registers a gauge family whose series are materialized per
// label value by With.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{reg: r, name: name, help: help, label: label,
		byValue: make(map[string]*Gauge)}
	r.mu.Lock()
	if _, ok := r.fams[name]; !ok {
		r.fams[name] = &family{name: name, help: help, typ: "gauge"}
	}
	r.mu.Unlock()
	return v
}

// With returns the gauge for one label value, registering it on first
// use.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.byValue[value]; ok {
		return g
	}
	g := v.reg.Gauge(v.name, v.help, v.label+`="`+escapeLabel(value)+`"`)
	v.byValue[value] = g
	return g
}

// escapeLabel makes a runtime string safe inside a label value per the
// exposition format (backslash, quote and newline escapes).
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus renders every registered family in sorted name order
// (series within a family in registration order), in the text
// exposition format.  The families are snapshotted under the registry
// lock and rendered outside it, so a scrape-time callback may take its
// owner's lock while that owner registers a series under the same lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, *f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, k int) bool { return fams[i].name < fams[k].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, m := range f.series {
			m.write(bw, f.name)
		}
	}
	return bw.Flush()
}

// writeSeries emits one sample line, merging the series' fixed labels
// with an extra label (the histogram's le), either of which may be
// empty.
func writeSeries(w *bufio.Writer, name, extra, labels, value string) {
	w.WriteString(name)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// formatFloat renders a float the shortest way that round-trips ("0.005",
// "1", "2.5e+06").
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
