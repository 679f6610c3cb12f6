package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swsm/internal/apps"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// tinySpec is the canonical fast test point: fft at Tiny scale on a few
// processors completes in milliseconds.
func tinySpec(procs int) harness.RunSpec {
	spec := harness.DefaultSpec("fft", harness.HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = procs
	return spec
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts, client.New(ts.URL)
}

func TestRunEndToEnd(t *testing.T) {
	_, _, c := newTestServer(t, Config{Parallel: 2})
	spec := tinySpec(4)
	st, err := c.Run(context.Background(), api.RunRequest{Spec: spec, Speedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Row == nil {
		t.Fatalf("status = %+v", st)
	}
	if st.Key != spec.Key() || st.Row.Key != spec.Key() {
		t.Fatalf("key mismatch: status %s, row %s, want %s", st.Key, st.Row.Key, spec.Key())
	}
	// The daemon must agree with a local in-process run bit for bit.
	local, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Row.Cycles != local.Cycles {
		t.Fatalf("remote cycles %d != local %d", st.Row.Cycles, local.Cycles)
	}
	if st.Row.Speedup <= 0 || st.Row.SeqCycles <= 0 {
		t.Fatalf("speedup not computed: %+v", st.Row)
	}
	if st.Cached {
		t.Fatal("fresh run reported cached")
	}
}

// TestRunHeteroSpec pins the job API's heterogeneity plane: a RunSpec
// carrying a skewed machine model and adaptive placement round-trips
// through the daemon's JSON wire format and store and agrees with a
// local in-process run bit for bit.
func TestRunHeteroSpec(t *testing.T) {
	_, _, c := newTestServer(t, Config{Parallel: 2})
	spec := tinySpec(4)
	hs, err := harness.HeteroSpec("cpu4", "adaptive")
	if err != nil {
		t.Fatal(err)
	}
	spec.Hetero = hs
	st, err := c.Run(context.Background(), api.RunRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Row == nil {
		t.Fatalf("status = %+v", st)
	}
	if st.Key != spec.Key() {
		t.Fatalf("key mismatch: daemon %s, local %s (hetero fields lost on the wire?)", st.Key, spec.Key())
	}
	local, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Row.Cycles != local.Cycles {
		t.Fatalf("remote cycles %d != local %d", st.Row.Cycles, local.Cycles)
	}
	// An invalid hetero spec must be rejected at admission.
	bad := tinySpec(4)
	bad.Hetero.SlowNum = 3 // den left zero
	if _, err := c.Run(context.Background(), api.RunRequest{Spec: bad}); err == nil {
		t.Fatal("invalid hetero spec accepted")
	}
}

// TestConcurrentIdenticalPOSTs pins the acceptance criterion: N
// identical concurrent requests execute the simulation exactly once
// (HTTP-layer coalescing + runner single-flight + memoization).
func TestConcurrentIdenticalPOSTs(t *testing.T) {
	s, _, c := newTestServer(t, Config{Parallel: 2})
	const n = 8
	var wg sync.WaitGroup
	statuses := make([]*api.RunStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], errs[i] = c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i].State != api.StateDone || statuses[i].Row == nil {
			t.Fatalf("request %d: %+v", i, statuses[i])
		}
		if statuses[i].Row.Cycles != statuses[0].Row.Cycles {
			t.Fatalf("request %d diverged: %d != %d", i, statuses[i].Row.Cycles, statuses[0].Row.Cycles)
		}
	}
	if rs := s.RunnerStats(); rs.Runs != 1 {
		t.Fatalf("runner ran %d simulations for %d identical requests, want exactly 1 (stats %+v)", rs.Runs, n, rs)
	}
}

// TestRestartServesFromStore pins the other acceptance criterion: a
// restarted daemon answers a previously computed RunSpec from the
// persistent store without re-simulating.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(2)

	s1, err := New(Config{Parallel: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c1 := client.New(ts1.URL)
	first, err := c1.Run(context.Background(), api.RunRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold run reported cached")
	}
	if rs := s1.RunnerStats(); rs.Runs != 1 {
		t.Fatalf("first daemon ran %d simulations, want 1", rs.Runs)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// "Restart": a fresh Server over the same store directory.
	s2, ts2, c2 := func() (*Server, *httptest.Server, *client.Client) {
		s, err := New(Config{Parallel: 2, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts, client.New(ts.URL)
	}()
	defer ts2.Close()
	defer s2.Drain(context.Background())

	warm, err := c2.Run(context.Background(), api.RunRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatalf("restarted daemon did not serve from store: %+v", warm)
	}
	if warm.Row.Cycles != first.Row.Cycles {
		t.Fatalf("stored cycles %d != original %d", warm.Row.Cycles, first.Row.Cycles)
	}
	if rs := s2.RunnerStats(); rs.Runs != 0 {
		t.Fatalf("restarted daemon ran %d simulations, want 0 (store hit)", rs.Runs)
	}
	if ss := s2.StoreStats(); ss.Hits != 1 {
		t.Fatalf("store stats = %+v, want Hits=1", ss)
	}
}

// blockingServer returns a server whose runFn parks until release is
// closed, making queue-occupancy tests deterministic.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runFn = func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return s.ses.RunCtx(ctx, spec)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts, client.New(ts.URL), release
}

func postRun(t *testing.T, ts *httptest.Server, req api.RunRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBackpressure429 pins explicit admission control: with one worker
// occupied and the one-deep queue full, the next submission is rejected
// with 429 and a Retry-After hint rather than buffered.
func TestBackpressure429(t *testing.T) {
	s, ts, _, release := blockingServer(t, Config{Parallel: 1, QueueDepth: 1})
	// Occupy the worker...
	r1 := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", r1.StatusCode)
	}
	waitInFlight(t, s, 1)
	// ...fill the queue...
	r2 := postRun(t, ts, api.RunRequest{Spec: tinySpec(8)})
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", r2.StatusCode)
	}
	// ...and overflow it.
	r3 := postRun(t, ts, api.RunRequest{Spec: tinySpec(4)})
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A duplicate of queued work still coalesces instead of rejecting.
	r4 := postRun(t, ts, api.RunRequest{Spec: tinySpec(8)})
	r4.Body.Close()
	if r4.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate of queued spec = %d, want 202 (coalesced)", r4.StatusCode)
	}
	close(release)
}

func waitInFlight(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().InFlight >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight never reached %d", want)
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts, c, release := blockingServer(t, Config{Parallel: 1, QueueDepth: 4})
	r1 := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	r1.Body.Close()
	waitInFlight(t, s, 1)

	r2 := postRun(t, ts, api.RunRequest{Spec: tinySpec(8)})
	var queued api.RunStatus
	if err := json.NewDecoder(r2.Body).Decode(&queued); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if queued.State != api.StateQueued {
		t.Fatalf("second job state = %s, want queued", queued.State)
	}
	got, err := c.Cancel(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.StateCanceled {
		t.Fatalf("cancelled job state = %s", got.State)
	}
	close(release)
	// The cancelled job must never execute: after the blocker finishes,
	// only one simulation ran.
	st, err := c.Get(context.Background(), "j1", true)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("blocker job: %+v, %v", st, err)
	}
	if rs := s.RunnerStats(); rs.Runs != 1 {
		t.Fatalf("runner ran %d simulations, want 1 (cancelled job must not run)", rs.Runs)
	}
}

// TestCancelFreesQueueSlot pins that a canceled queued job gives its
// queue slot back at once: with the one worker held and the two-deep
// queue full, canceling both queued jobs makes room for two new
// submissions before the worker moves.
func TestCancelFreesQueueSlot(t *testing.T) {
	s, ts, c, release := blockingServer(t, Config{Parallel: 1, QueueDepth: 2})
	r := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	r.Body.Close()
	waitInFlight(t, s, 1)
	submit := func(procs int) string {
		t.Helper()
		r := postRun(t, ts, api.RunRequest{Spec: tinySpec(procs)})
		defer r.Body.Close()
		var st api.RunStatus
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusAccepted || st.State != api.StateQueued {
			t.Fatalf("submit of %dp = %d in state %q, want 202 queued", procs, r.StatusCode, st.State)
		}
		return st.ID
	}
	for _, id := range []string{submit(4), submit(8)} {
		if _, err := c.Cancel(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	submit(16)
	submit(32)
	close(release)
}

func TestDrainRejectsNewWork(t *testing.T) {
	s, ts, c, _ := blockingServer(t, Config{Parallel: 1, QueueDepth: 2})
	// Drain an idle server completes immediately and flips healthz.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining || h.KeyVersion != harness.KeyVersion {
		t.Fatalf("health = %+v", h)
	}
	resp := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestValidation(t *testing.T) {
	_, ts, _, _ := blockingServer(t, Config{Parallel: 1})
	bad := []api.RunRequest{
		{Spec: func() harness.RunSpec { s := tinySpec(2); s.App = "no-such-app"; return s }()},
		{Spec: func() harness.RunSpec { s := tinySpec(2); s.Protocol = "mesi"; return s }()},
		{Spec: func() harness.RunSpec { s := tinySpec(0); return s }()},
		{Spec: func() harness.RunSpec { s := tinySpec(2); s.Trace = true; return s }()},
		{Spec: func() harness.RunSpec { s := tinySpec(2); s.Comm.MaxPacket = 0; return s }()},
		{Spec: func() harness.RunSpec { s := tinySpec(2); s.Fault.DropPPM = -1; return s }()},
	}
	for i, req := range bad {
		resp := postRun(t, ts, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d accepted with %d", i, resp.StatusCode)
		}
	}
}

// TestBodyMustBeOneJSONValue pins the strict body rule on every
// submission endpoint: a valid request followed by anything but
// whitespace is malformed (400), and trailing whitespace is not.
func TestBodyMustBeOneJSONValue(t *testing.T) {
	_, ts, _, _ := blockingServer(t, Config{Parallel: 1})
	run, _ := json.Marshal(api.RunRequest{Spec: tinySpec(2)})
	sweep, _ := json.Marshal(api.SweepRequest{Points: []api.RunRequest{{Spec: tinySpec(3)}}})
	search, _ := json.Marshal(exploreReq())
	for _, tc := range []struct {
		path string
		body []byte
	}{{"/runs", run}, {"/sweeps", sweep}, {"/explore", search}} {
		for _, c := range []struct {
			tail string
			want int
		}{{"}garbage", http.StatusBadRequest}, {" \n\t\n", http.StatusAccepted}} {
			resp, err := http.Post(ts.URL+tc.path, "application/json",
				bytes.NewReader(append(append([]byte(nil), tc.body...), c.tail...)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("POST %s with %q after the body = %d, want %d", tc.path, c.tail, resp.StatusCode, c.want)
			}
		}
	}
}

// TestValidateAcceptsAnyLitmusSeed pins that litmus programs resolve by
// name: a seed nothing in the process has built is a valid app.
func TestValidateAcceptsAnyLitmusSeed(t *testing.T) {
	req := api.RunRequest{Spec: tinySpec(2)}
	req.Spec.App = "litmus-987654321"
	if err := ValidateRequest(req); err != nil {
		t.Fatalf("ValidateRequest(%s) = %v, want accepted", req.Spec.App, err)
	}
}

func TestSweep(t *testing.T) {
	s, _, c, _ := newTestServerWithStore(t)
	req := api.SweepRequest{Points: []api.RunRequest{
		{Spec: tinySpec(2)},
		{Spec: tinySpec(4)},
		{Spec: tinySpec(2)}, // duplicate point: must coalesce, not re-run
	}}
	st, err := c.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Done != 3 || st.Failed != 0 {
		t.Fatalf("sweep status = %+v", st)
	}
	if st.Points[0].ID != st.Points[2].ID {
		t.Fatalf("duplicate points got distinct jobs: %s vs %s", st.Points[0].ID, st.Points[2].ID)
	}
	if st.Points[0].Row.Cycles != st.Points[2].Row.Cycles {
		t.Fatal("duplicate points disagree")
	}
	if rs := s.RunnerStats(); rs.Runs != 2 {
		t.Fatalf("sweep ran %d simulations for 2 distinct points, want 2", rs.Runs)
	}
}

func newTestServerWithStore(t *testing.T) (*Server, *httptest.Server, *client.Client, string) {
	t.Helper()
	dir := t.TempDir()
	s, ts, c := newTestServer(t, Config{Parallel: 2, StoreDir: dir})
	return s, ts, c, dir
}

// TestEventsSSE pins the /events contract: a subscriber sees the job's
// lifecycle (queued → started → done) with the stats-layer row attached
// to the terminal frame.
func TestEventsSSE(t *testing.T) {
	_, ts, c, _ := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type frame struct {
		event string
		data  api.Event
	}
	frames := make(chan frame, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var ev string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var e api.Event
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e) == nil {
					frames <- frame{ev, e}
				}
			}
		}
		close(frames)
	}()

	if _, err := c.Run(ctx, api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"jobQueued": false, "jobStarted": false, "jobDone": false}
	for !want["jobDone"] {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("event stream closed before jobDone")
			}
			if _, tracked := want[f.event]; tracked {
				want[f.event] = true
			}
			if f.event != f.data.Type {
				t.Fatalf("SSE event name %q != payload type %q", f.event, f.data.Type)
			}
			if f.event == "jobDone" {
				if f.data.Job == nil || f.data.Job.Row == nil {
					t.Fatalf("jobDone without row: %+v", f.data)
				}
				if f.data.Job.Row.Breakdown["busy"] <= 0 {
					t.Fatal("jobDone row lost the stats breakdown")
				}
			}
		case <-ctx.Done():
			t.Fatalf("timed out; saw %+v", want)
		}
	}
	if !want["jobQueued"] || !want["jobStarted"] {
		t.Fatalf("missing lifecycle frames: %+v", want)
	}
}

func TestMetricsShape(t *testing.T) {
	s, _, c, _ := newTestServerWithStore(t)
	if _, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}
	// Warm repeat: in-process memo serves it (store is only consulted on
	// the queue path before the runner, so either cache may hit; what
	// matters is no second simulation).
	if _, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != s.ses.Parallelism() || m.QueueCap == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Jobs[api.StateDone] < 1 {
		t.Fatalf("metrics lost done jobs: %+v", m.Jobs)
	}
	if m.Runner.Runs != 1 {
		t.Fatalf("metrics runner = %+v, want exactly 1 run", m.Runner)
	}
	if m.Store.Puts != 1 {
		t.Fatalf("metrics store = %+v, want 1 put", m.Store)
	}
}

// TestSweepRollbackPreservesForeignJobs pins that a sweep rejected for
// queue overflow cancels only its own fresh jobs, never a job another
// client coalesced onto.
func TestSweepRollbackPreservesForeignJobs(t *testing.T) {
	s, ts, c, release := blockingServer(t, Config{Parallel: 1, QueueDepth: 2})
	// Foreign job occupies the worker; another sits queued.
	r1 := postRun(t, ts, api.RunRequest{Spec: tinySpec(2)})
	r1.Body.Close()
	waitInFlight(t, s, 1)
	r2 := postRun(t, ts, api.RunRequest{Spec: tinySpec(8)})
	var foreign api.RunStatus
	json.NewDecoder(r2.Body).Decode(&foreign)
	r2.Body.Close()

	// Sweep: first point coalesces onto the queued foreign job, the rest
	// overflow the queue.
	body, _ := json.Marshal(api.SweepRequest{Points: []api.RunRequest{
		{Spec: tinySpec(8)},  // coalesces
		{Spec: tinySpec(4)},  // takes last queue slot
		{Spec: tinySpec(16)}, // overflows → whole sweep rejected
		{Spec: tinySpec(1)},
	}})
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflowing sweep = %d, want 429", resp.StatusCode)
	}
	// The foreign queued job must still be live.
	st, err := c.Get(context.Background(), foreign.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == api.StateCanceled {
		t.Fatal("sweep rollback cancelled a foreign job")
	}
	close(release)
	if _, err := c.Get(context.Background(), foreign.ID, true); err != nil {
		t.Fatal(err)
	}
}

func TestListRuns(t *testing.T) {
	_, ts, c, _ := newTestServerWithStore(t)
	if _, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []api.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].State != api.StateDone {
		t.Fatalf("list = %+v", list)
	}
}

func TestUnknownJobAndSweep(t *testing.T) {
	_, ts, _, _ := newTestServerWithStore(t)
	for _, path := range []string{"/runs/j999", "/sweeps/s999"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestClientBackoffRetries pins the client half of backpressure: a 429
// makes the client retry after Retry-After rather than fail.
func TestClientBackoffRetries(t *testing.T) {
	var mu sync.Mutex
	rejections := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if rejections < 2 {
			rejections++
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full"}`)
			return
		}
		fmt.Fprint(w, `{"id":"j1","key":"k","state":"done"}`)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := client.New(ts.URL)
	st, err := c.Run(context.Background(), api.RunRequest{Spec: tinySpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("status = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if rejections != 2 {
		t.Fatalf("client retried through %d rejections, want 2", rejections)
	}
}

// TestClientPointsSubmitsEachSpecOnce checks that client.Points submits
// a spec a batch lists more than once exactly once: a Figure 5 grid
// lists each parameter's x1 point once per parameter, yet the daemon
// receives one job per distinct spec, Points returns one status per
// job, and the figure still equals the session's.
func TestClientPointsSubmitsEachSpecOnce(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Parallel: 2})
	var mu sync.Mutex
	posts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/runs" {
			mu.Lock()
			posts++
			mu.Unlock()
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	var specs []harness.RunSpec
	statuses := 0
	remote := func(ctx context.Context, batch []harness.RunSpec) ([]harness.Point, error) {
		specs = append(specs, batch...)
		points, st, err := c.Points(ctx, batch, 3)
		statuses += len(st)
		return points, err
	}
	got, err := harness.Figure5(ctx, remote, "fft", apps.Tiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Figure5(ctx, harness.NewSession(2).Points, "fft", apps.Tiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := harness.FormatFigure5(got), harness.FormatFigure5(want); g != w {
		t.Fatalf("daemon Figure 5 differs from the session's:\n--- daemon\n%s\n--- session\n%s", g, w)
	}
	distinct := map[harness.RunSpec]bool{}
	for _, spec := range specs {
		distinct[spec] = true
	}
	if len(distinct) == len(specs) {
		t.Fatalf("the Figure 5 grid of %d specs repeats none; the test covers no repeat", len(specs))
	}
	if posts != len(distinct) || statuses != len(distinct) {
		t.Fatalf("%d specs (%d distinct) made %d submissions and %d statuses, want %d of each",
			len(specs), len(distinct), posts, statuses, len(distinct))
	}
}

// TestClientRowsMatchSession pins the one point source behind both
// CLIs: every experiment's projection — Figures 3-5, Tables 4 and 5,
// the degradation, heterogeneity and litmus sweeps, all of fft at
// Tiny/4p — prints the same text and CSV from the daemon's points
// (client.Points) as from the session's, and so does the sc seed-15
// Base/4p litmus point, whose run fails the checker.  A spec
// RunSpec.Validate refuses fails before any point is submitted.
func TestClientRowsMatchSession(t *testing.T) {
	s, _, c := newTestServer(t, Config{Parallel: 2})
	ctx := context.Background()
	jobs := 0
	remote := func(ctx context.Context, specs []harness.RunSpec) ([]harness.Point, error) {
		points, st, err := c.Points(ctx, specs, 3)
		jobs += len(st)
		return points, err
	}
	const app, procs = "fft", 4
	both := []harness.ProtocolKind{harness.HLRC, harness.SC}
	configs := harness.Figure3Configs
	render := func(src harness.Source) string {
		var out strings.Builder
		write := func(text string, tab *harness.Table, err error) {
			if err != nil {
				t.Fatal(err)
			}
			out.WriteString(text)
			if tab != nil {
				if err := tab.WriteCSV(&out); err != nil {
					t.Fatal(err)
				}
			}
		}
		bar, err := harness.Figure3(ctx, src, app, apps.Tiny, procs, configs)
		if err != nil {
			t.Fatal(err)
		}
		write(harness.FormatFigure3(bar, configs)+harness.RenderFigure3(bar, configs),
			harness.Figure3Table([]*harness.AppBar{bar}, configs), nil)
		fig4, err := harness.Figure4(ctx, src, app, apps.Tiny, procs, configs)
		write(harness.FormatFigure4(fig4)+harness.RenderFigure4(fig4), harness.Figure4Table(fig4), err)
		fig5, err := harness.Figure5(ctx, src, app, apps.Tiny, procs)
		write(harness.FormatFigure5(fig5), harness.Figure5Table([]string{app}, [][]harness.Figure5Point{fig5}), err)
		t4, err := harness.Table4(ctx, src, []string{app}, apps.Tiny, procs)
		write(harness.FormatTable4(t4), nil, err)
		t5, err := harness.Table5(ctx, src, []string{app}, apps.Tiny, procs)
		write(harness.FormatTable5(t5), nil, err)
		degr, err := harness.DegradationSweep(ctx, src, []string{app}, both, apps.Tiny, procs, 1, []int64{10_000, 20_000})
		write(harness.FormatDegradation(degr), harness.DegradationTable(degr), err)
		het, err := harness.HeterogeneitySweep(ctx, src, []string{app}, both, apps.Tiny, procs, []string{"uniform", "cpu4"}, []string{"rr", "adaptive"})
		write(harness.FormatHeterogeneity(het), harness.HeterogeneityTable(het), err)
		lit, err := harness.LitmusSweep(ctx, src, 1, 2, []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC}, apps.Tiny, procs, []int64{0, 20_000})
		write(harness.FormatLitmus(lit), harness.LitmusTable(lit), err)
		bad, err := harness.LitmusSweep(ctx, src, 15, 1, []harness.ProtocolKind{harness.SC}, apps.Base, procs, nil)
		if err == nil && bad[0].Conforms() {
			t.Fatalf("sc seed 15 at Base/%dp conforms; the comparison covers no failed point", procs)
		}
		write(harness.FormatLitmus(bad), harness.LitmusTable(bad), err)
		return out.String()
	}
	local := render(harness.NewSession(2).Points)
	if got := render(remote); got != local {
		t.Errorf("daemon points project differently from session points:\n--- daemon\n%s\n--- session\n%s", got, local)
	}
	if jobs == 0 {
		t.Fatal("no point went through the daemon")
	}

	bad := []harness.RunSpec{tinySpec(0), tinySpec(2)}
	before := s.Metrics().Jobs
	if _, _, err := c.Points(ctx, bad, 3); err == nil || !strings.Contains(err.Error(), "procs 0 outside [1, 64]") {
		t.Fatalf("Points with procs 0 = %v, want the validation error", err)
	}
	if after := s.Metrics().Jobs; fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("an invalid grid submitted jobs: %v -> %v", before, after)
	}
}
