package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"swsm/internal/harness"
	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// scrape fetches /metrics in the Prometheus text exposition and parses
// it into sample lines (name{labels} -> value as string).
func scrape(t *testing.T, ts *httptest.Server) (string, map[string]string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[name] = value
	}
	return string(raw), samples
}

func sampleInt(t *testing.T, samples map[string]string, series string) int64 {
	t.Helper()
	v, ok := samples[series]
	if !ok {
		t.Fatalf("exposition has no series %q", series)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, v, err)
	}
	return int64(f)
}

// TestMetricsPrometheusExposition runs a real job and checks the scrape:
// well-formed exposition, job lifecycle counters, latency histograms
// with cumulative le buckets, process stats — plus the JSON snapshot
// still served under content negotiation.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Parallel: 2})
	if _, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}

	raw, samples := scrape(t, ts)
	for _, want := range []string{
		"# HELP svmd_jobs_total ", "# TYPE svmd_jobs_total counter",
		"# TYPE svmd_queue_wait_seconds histogram",
		"# TYPE svmd_run_seconds histogram",
		"# TYPE svmd_store_get_seconds histogram",
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := sampleInt(t, samples, `svmd_jobs_total{state="done"}`); n != 1 {
		t.Errorf(`svmd_jobs_total{state="done"} = %d, want 1`, n)
	}
	if n := sampleInt(t, samples, "svmd_run_seconds_count"); n != 1 {
		t.Errorf("svmd_run_seconds_count = %d, want 1", n)
	}
	if n := sampleInt(t, samples, "svmd_sim_run_seconds_count"); n != 1 {
		t.Errorf("svmd_sim_run_seconds_count = %d, want 1 (pool observer)", n)
	}
	// le buckets must be cumulative and end at +Inf == _count.
	var prev int64
	for _, b := range obs.DefBuckets {
		le := strconv.FormatFloat(b, 'g', -1, 64)
		n := sampleInt(t, samples, `svmd_run_seconds_bucket{le="`+le+`"}`)
		if n < prev {
			t.Errorf("bucket le=%s = %d below previous %d: not cumulative", le, n, prev)
		}
		prev = n
	}
	inf := sampleInt(t, samples, `svmd_run_seconds_bucket{le="+Inf"}`)
	if inf != sampleInt(t, samples, "svmd_run_seconds_count") {
		t.Errorf("+Inf bucket %d != count", inf)
	}
	if sampleInt(t, samples, "svmd_workers") != 2 {
		t.Error("svmd_workers gauge wrong")
	}
	if sampleInt(t, samples, "go_goroutines") < 1 {
		t.Error("go_goroutines implausible")
	}

	// Content negotiation: the JSON snapshot survives, now with process
	// stats.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=json", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m api.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("JSON metrics did not decode: %v", err)
	}
	if m.Workers != 2 || m.Process.Goroutines < 1 || m.Process.HeapSysBytes == 0 {
		t.Errorf("JSON metrics = %+v", m)
	}
	// And the typed client (Accept: application/json) still works.
	cm, err := c.Metrics(context.Background())
	if err != nil || cm.Workers != 2 {
		t.Errorf("client.Metrics = %+v, %v", cm, err)
	}
}

// TestMetricsNeverBlocksQueue pins the liveness property under -race:
// with every worker parked and the queue full, /metrics (both formats)
// still answers promptly — scraping shares no lock with job execution.
func TestMetricsNeverBlocksQueue(t *testing.T) {
	_, ts, _, release := blockingServer(t, Config{Parallel: 1, QueueDepth: 1})
	r1 := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	r1.Body.Close()
	r2 := postRun(t, ts, api.RunRequest{Spec: tinySpec(4)})
	r2.Body.Close()

	cl := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/metrics", "/metrics?format=json"} {
		resp, err := cl.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s blocked behind a stalled queue: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	close(release)
}

// TestStitchedTrace fetches a completed job's stitched timeline and
// verifies both layers are present: the service lifecycle spans as
// process 0 and the simulator's deterministic events as process 1.
func TestStitchedTrace(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Parallel: 2})
	st, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET trace = %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v", err)
	}
	var service, sim int
	serviceSpans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		switch e.Pid {
		case 0:
			service++
			serviceSpans[e.Name] = true
		case 1:
			sim++
		}
	}
	if service == 0 || sim == 0 {
		t.Fatalf("stitched trace layers: %d service spans, %d sim events — want both", service, sim)
	}
	for _, name := range []string{obs.SpanQueue, obs.SpanSim, obs.SpanRespond} {
		if !serviceSpans[name] {
			t.Errorf("service track missing %q span (have %v)", name, serviceSpans)
		}
	}

	// A queued/failed job has no trace.
	resp2, err := http.Get(ts.URL + "/runs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", resp2.StatusCode)
	}
}

// TestInstrumentationPreservesResults pins the determinism contract:
// a fully instrumented daemon (logging, SLO accounting, flight
// recorder) returns byte-for-byte the same result row as an in-process
// uninstrumented run.
func TestInstrumentationPreservesResults(t *testing.T) {
	var logBuf lockedBuffer
	_, _, c := newTestServer(t, Config{
		Parallel: 2,
		Logger:   obs.NewLogger(&logBuf, slog.LevelDebug, true),
		SLO:      time.Nanosecond, // every job breaches: exercises the SLO path too
		DebugDir: t.TempDir(),
	})
	spec := tinySpec(2)
	st, err := c.Run(context.Background(), api.RunRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	localRow := harness.NewRunRow(res)
	remote, err := json.Marshal(st.Row)
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(&localRow)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Errorf("instrumented row diverged from uninstrumented run:\nremote: %s\nlocal:  %s", remote, local)
	}

	// The log trail carries the job ID across layers.  The outcome line
	// is logged after the job's waiters are woken, so the response can
	// arrive before it.
	logs := logBuf.String()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logs, "job done") && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		logs = logBuf.String()
	}
	if !strings.Contains(logs, `"job":"`+st.ID+`"`) {
		t.Errorf("structured logs never mention job %s:\n%s", st.ID, logs)
	}
	for _, msg := range []string{"job queued", "simulate", "job done"} {
		if !strings.Contains(logs, msg) {
			t.Errorf("log trail missing %q:\n%s", msg, logs)
		}
	}
}

// lockedBuffer is a log sink the test reads while the daemon's
// goroutines still write to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFailureDumpsFlightRecorder forces a job failure and verifies the
// flight recorder lands a dump (ring JSON) in the debug directory and
// the failure is visible in the exposition.
func TestFailureDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Parallel: 1, DebugDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	s.runFn = func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		return nil, boom
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})

	resp := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	resp.Body.Close()
	waitForState(t, s, api.StateFailed, 1)

	// The dump is asynchronous; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	var dumps []string
	for time.Now().Before(deadline) {
		m, _ := filepath.Glob(filepath.Join(dir, "svmd-flight-*.json"))
		if len(m) > 0 {
			dumps = m
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(dumps) == 0 {
		t.Fatal("no flight dump written for a failed job")
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason  string             `json:"reason"`
		Records []obs.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "job failed" || len(doc.Records) == 0 {
		t.Errorf("dump doc = reason %q, %d records", doc.Reason, len(doc.Records))
	}
	sawFailure := false
	for _, r := range doc.Records {
		if r.State == api.StateFailed && r.Msg != "" {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Errorf("dump ring has no failed record with a message: %+v", doc.Records)
	}

	_, samples := scrape(t, ts)
	if n := sampleInt(t, samples, `svmd_jobs_total{state="failed"}`); n != 1 {
		t.Errorf(`svmd_jobs_total{state="failed"} = %d, want 1`, n)
	}
}

// waitForState polls until n jobs reach the given terminal state.
func waitForState(t *testing.T, s *Server, state string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		got := s.stateCount[state]
		s.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d jobs in state %q", n, state)
}

// TestSLOBreachCounted drives a job through a deliberately tiny SLO and
// checks the breach counter and dump.
func TestSLOBreachCounted(t *testing.T) {
	dir := t.TempDir()
	_, ts, c := newTestServer(t, Config{Parallel: 1, SLO: time.Nanosecond, DebugDir: dir})
	if _, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}
	// The breach is counted and the dump written after the job's waiters
	// are woken, so the response can arrive before either.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, samples := scrape(t, ts)
		n := sampleInt(t, samples, "svmd_slo_breaches_total")
		m, _ := filepath.Glob(filepath.Join(dir, "svmd-flight-*.json"))
		if n == 1 && len(m) > 0 {
			return
		}
		if n > 1 || time.Now().After(deadline) {
			t.Fatalf("svmd_slo_breaches_total = %d with %d flight dumps, want 1 with a dump", n, len(m))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
