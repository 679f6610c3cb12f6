package explore_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// These tests drive the search as the job front end hosts it: admission,
// the concurrency limit, cancel, events, metrics and the HTTP surface of
// /explore on a server.Server.

// frontReq is an 8-point search over the fft kernel (2 protocols x 2
// comm sets x 2 proc counts).
func frontReq() explore.Request {
	return explore.Request{
		App:        "fft",
		Scale:      0,
		Seed:       2,
		SeedPoints: 8,
		Width:      4,
		Space: explore.Space{
			Protocols:      []harness.ProtocolKind{harness.HLRC, harness.SC},
			CommSets:       []string{"A", "B"},
			CostSets:       []string{"O"},
			Procs:          []int{2, 4},
			HLRCUnitShifts: []uint{0},
			SCBlocks:       []int{0},
			DropPPMs:       []int64{0},
		},
	}
}

// frontEnd starts a job front end over HTTP.  With a non-nil release,
// every simulation waits for release to close (or for its job to be
// cancelled), so no search ends on its own until then.
func frontEnd(t *testing.T, release chan struct{}) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := server.New(server.Config{Parallel: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if release != nil {
		s.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return harness.RunContext(ctx, spec)
		})
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if release != nil {
			select {
			case <-release:
			default:
				close(release)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	c := client.New(ts.URL)
	c.Retries = -1
	return s, ts, c
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func postExplore(t *testing.T, ts *httptest.Server, query string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/explore"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func frontReqBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(frontReq())
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// A search is running as e1 on submission and done with its frontier
// and wall time once it ends; the event stream carries one started and
// one done event, with progress and frontier events between them.
func TestManagerLifecycle(t *testing.T) {
	_, ts, c := frontEnd(t, nil)
	ctx := testCtx(t)

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mu sync.Mutex
	events := map[string]int{}
	sawDone := make(chan struct{})
	go func() {
		defer close(sawDone)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev api.Event
			if json.Unmarshal([]byte(line), &ev) != nil || ev.Explore == nil {
				continue
			}
			mu.Lock()
			events[ev.Type]++
			mu.Unlock()
			if ev.Type == api.EventExploreDone {
				return
			}
		}
	}()

	st, err := c.SubmitExplore(ctx, frontReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateRunning || st.ID != "e1" {
		t.Fatalf("initial status = %+v", st)
	}
	fin, err := c.GetExplore(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.StateDone || fin.Stopped != "converged" {
		t.Fatalf("terminal status = %+v", fin)
	}
	if len(fin.Frontier) == 0 {
		t.Error("done exploration has empty frontier")
	}
	if fin.WallMS <= 0 {
		t.Error("missing wall time")
	}
	select {
	case <-sawDone:
	case <-ctx.Done():
		t.Fatal("event stream never carried the done event")
	}
	mu.Lock()
	defer mu.Unlock()
	if events[api.EventExploreStarted] != 1 || events[api.EventExploreDone] != 1 {
		t.Errorf("lifecycle events = %v", events)
	}
	if events[api.EventExploreProgress] == 0 || events[api.EventExploreFrontier] == 0 {
		t.Errorf("no progress/frontier events: %v", events)
	}
}

// Two searches run at once and a third is refused; the slot is free
// again once a search completes.
func TestManagerLimitAndSlotRelease(t *testing.T) {
	release := make(chan struct{})
	_, _, c := frontEnd(t, release)
	ctx := testCtx(t)
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := c.SubmitExplore(ctx, frontReq())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := c.SubmitExplore(ctx, frontReq()); client.StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("third submit = %v, want 429", err)
	}
	close(release)
	for _, id := range ids {
		if st, err := c.GetExplore(ctx, id, true); err != nil || st.State != api.StateDone {
			t.Fatalf("search %s = %+v, %v", id, st, err)
		}
	}
	st, err := c.SubmitExplore(ctx, frontReq())
	if err != nil {
		t.Fatalf("submit after completion = %v", err)
	}
	if fin, err := c.GetExplore(ctx, st.ID, true); err != nil || fin.State != api.StateDone {
		t.Fatalf("search %s = %+v, %v", st.ID, fin, err)
	}
}

// DELETE /explore/{id} ends a running search as canceled, with an error,
// and frees its slot.
func TestManagerCancel(t *testing.T) {
	release := make(chan struct{})
	_, _, c := frontEnd(t, release)
	ctx := testCtx(t)
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := c.SubmitExplore(ctx, frontReq())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := c.CancelExplore(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	fin, err := c.GetExplore(ctx, ids[0], true)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.StateCanceled || fin.Error == "" {
		t.Fatalf("status after cancel = %+v", fin)
	}
	if _, err := c.SubmitExplore(ctx, frontReq()); err != nil {
		t.Fatalf("submit after cancel = %v", err)
	}
}

// A draining front end refuses a new search with 503 and says why.
func TestManagerAdmitGate(t *testing.T) {
	s, ts, _ := frontEnd(t, nil)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	resp := postExplore(t, ts, "", frontReqBody(t))
	defer resp.Body.Close()
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body.Error, "draining") {
		t.Fatalf("gated submit = %d %q, want 503 naming the drain", resp.StatusCode, body.Error)
	}
}

// The svmd_explore_* series agree with a finished search's progress.
func TestManagerMetrics(t *testing.T) {
	_, ts, c := frontEnd(t, nil)
	ctx := testCtx(t)
	fin, err := c.Explore(ctx, frontReq())
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.StateDone {
		t.Fatalf("search = %+v", fin)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name] = value
		}
	}
	for series, want := range map[string]int{
		"svmd_explore_active":                              0,
		`svmd_explore_total{state="done"}`:                 1,
		`svmd_explore_total{state="failed"}`:               0,
		`svmd_explore_total{state="canceled"}`:             0,
		"svmd_explore_batches_total":                       fin.Progress.Batches,
		`svmd_explore_evaluations_total{outcome="sim"}`:    fin.Progress.SimsRun,
		`svmd_explore_evaluations_total{outcome="cached"}`: fin.Progress.CachedHits,
		"svmd_explore_frontier_points_total":               len(fin.Frontier),
	} {
		v, ok := samples[series]
		if !ok {
			t.Errorf("metrics missing %s", series)
			continue
		}
		if got, err := strconv.ParseFloat(v, 64); err != nil || got != float64(want) {
			t.Errorf("%s = %s, want %d", series, v, want)
		}
	}
}

// The HTTP surface: submit-and-wait, frontier CSV, list, unknown id and
// a malformed body.
func TestHandlersEndToEnd(t *testing.T) {
	_, ts, _ := frontEnd(t, nil)

	resp := postExplore(t, ts, "?wait=1", frontReqBody(t))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit wait=1 status %d", resp.StatusCode)
	}
	var st api.ExploreStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || len(st.Frontier) == 0 {
		t.Fatalf("terminal status = %+v", st)
	}

	r2, err := http.Get(ts.URL + "/explore/" + st.ID + "/frontier")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	csv, err := io.ReadAll(r2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := r2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("frontier content type %q", ct)
	}
	if !strings.HasPrefix(string(csv), "eval,cost_cycles,speedup,cycles,label,key\n") {
		t.Errorf("frontier csv = %q", csv)
	}

	r3, err := http.Get(ts.URL + "/explore")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	var list []api.ExploreStatus
	if err := json.NewDecoder(r3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	r4, err := http.Get(ts.URL + "/explore/e404")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d", r4.StatusCode)
	}

	r5 := postExplore(t, ts, "", []byte("{"))
	r5.Body.Close()
	if r5.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status %d", r5.StatusCode)
	}
}

// A search over the limit is a 429 with Retry-After.
func TestHandlerLimitMapsTo429(t *testing.T) {
	_, ts, _ := frontEnd(t, make(chan struct{}))
	body := frontReqBody(t)
	for i := 0; i < 2; i++ {
		r := postExplore(t, ts, "", body)
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d, want 202", i+1, r.StatusCode)
		}
	}
	r := postExplore(t, ts, "", body)
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-limit submit status %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
}
