package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// The job-API contract: one script, run against a daemon and against a
// coordinator with one in-process worker, must observe the same status
// codes, states, rows and cache flags.  A client cannot tell the two
// apart.

// target is one service under contract: its base URL, the gates that
// hold its simulations, and refuse, which makes it turn new work away
// (a daemon drains, a coordinator is fenced).
type target struct {
	url    string
	gates  *gates
	refuse func()
}

// blocker is the spec whose simulation parks until the target's gate
// opens: it holds the single execution slot so later jobs stay queued.
var blocker = cspec(2)

// heldApp's simulations park until the target's second gate opens, so
// a search of it stays running at its sequential baseline.
const heldApp = "lu"

// gates holds the blocker's run and the heldApp runs; release and
// releaseHeld open them, each once.
type gates struct {
	blocker, held   chan struct{}
	blockerO, heldO sync.Once
}

func newGates() *gates {
	return &gates{blocker: make(chan struct{}), held: make(chan struct{})}
}

func (g *gates) release()     { g.blockerO.Do(func() { close(g.blocker) }) }
func (g *gates) releaseHeld() { g.heldO.Do(func() { close(g.held) }) }

// run simulates every spec directly, holding the blocker's run and the
// heldApp runs until their gates open.
func (g *gates) run(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
	var gate chan struct{}
	switch {
	case spec == blocker:
		gate = g.blocker
	case spec.App == heldApp:
		gate = g.held
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return harness.RunContext(ctx, spec)
}

// newDaemonTarget's queue holds two, like the coordinator target's one
// worker queue: a canceled job frees its slot at once.
func newDaemonTarget(t *testing.T) target {
	s, err := server.New(server.Config{Parallel: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := newGates()
	s.SetRunFunc(g.run)
	ts := httptest.NewServer(s.Handler())
	drain := func() {
		g.release()
		g.releaseHeld()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}
	t.Cleanup(func() {
		drain()
		ts.Close()
	})
	return target{url: ts.URL, gates: g, refuse: drain}
}

func newCoordinatorTarget(t *testing.T) target {
	c := newTestCoordinator(t, CoordinatorConfig{QueueDepth: 2, HeartbeatTTL: 10 * time.Second})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	w := newWorkerDaemon(t, 1)
	g := newGates()
	t.Cleanup(func() { // runs before the worker's drain
		g.release()
		g.releaseHeld()
	})
	w.SetRunFunc(g.run)
	startAgent(t, "w1", []string{ts.URL}, w)
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Status().Workers) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fence := func() { c.lease(api.ClusterLeaseRequest{WorkerID: "w1", Slots: 1, Epoch: c.Epoch() + 1}) }
	return target{url: ts.URL, gates: g, refuse: fence}
}

// call performs one request and decodes a 2xx JSON reply into out.  It
// runs on helper goroutines too, so a failure is reported with Errorf
// and returns code 0.
func call(t *testing.T, ctx context.Context, method, url string, body, out any) int {
	t.Helper()
	resp := do(t, ctx, method, url, body)
	if resp == nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// do performs one request, sending a string body as is and any other
// body as JSON.  The caller closes the response; nil reports a failure.
func do(t *testing.T, ctx context.Context, method, url string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if raw, ok := body.(string); ok {
		rd = strings.NewReader(raw)
	} else if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		t.Error(err)
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			t.Error(err)
		}
		return nil
	}
	return resp
}

// observed is what the contract compares for one step.
type observed struct {
	Code   int
	ID     string
	State  string
	HasRow bool
	Cached bool
	More   string // step-specific detail
}

func runObs(code int, st api.RunStatus) observed {
	return observed{Code: code, ID: st.ID, State: st.State, HasRow: st.Row != nil, Cached: st.Cached}
}

// waitState polls a job until it reaches state, or for 5 seconds, and
// returns the state it last saw.
func waitState(t *testing.T, base, id, state string) string {
	t.Helper()
	var st api.RunStatus
	for deadline := time.Now().Add(5 * time.Second); st.State != state && time.Now().Before(deadline); {
		call(t, context.Background(), http.MethodGet, base+"/runs/"+id, nil, &st)
		time.Sleep(5 * time.Millisecond)
	}
	return st.State
}

type step struct {
	name string
	do   func(t *testing.T, tg target, ids map[string]string) observed
}

var contractScript = []step{
	{"healthz", func(t *testing.T, tg target, _ map[string]string) observed {
		var h api.Health
		code := call(t, context.Background(), http.MethodGet, tg.url+"/healthz", nil, &h)
		return observed{Code: code, More: fmt.Sprintf("ok=%v version=%s", h.OK, h.Version)}
	}},
	{"submit wait=1", func(t *testing.T, tg target, ids map[string]string) observed {
		var st api.RunStatus
		code := call(t, context.Background(), http.MethodPost, tg.url+"/runs?wait=1", creq(0), &st)
		ids["a"] = st.ID
		return runObs(code, st)
	}},
	{"concurrent identical POSTs coalesce", func(t *testing.T, tg target, ids map[string]string) observed {
		var sts [2]api.RunStatus
		var codes [2]int
		var wg sync.WaitGroup
		for i := range sts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				codes[i] = call(t, context.Background(), http.MethodPost, tg.url+"/runs",
					api.RunRequest{Spec: blocker}, &sts[i])
			}(i)
		}
		wg.Wait()
		ids["blocker"] = sts[0].ID
		waitState(t, tg.url, sts[0].ID, api.StateRunning)
		return observed{Code: codes[0], ID: sts[0].ID, More: fmt.Sprintf("codes=%v same=%v", codes, sts[0].ID == sts[1].ID)}
	}},
	{"cancel a queued job", func(t *testing.T, tg target, ids map[string]string) observed {
		var st api.RunStatus
		call(t, context.Background(), http.MethodPost, tg.url+"/runs", creq(1), &st)
		queued := st.State
		code := call(t, context.Background(), http.MethodDelete, tg.url+"/runs/"+st.ID, nil, &st)
		o := runObs(code, st)
		o.More = "was " + queued
		return o
	}},
	{"last wait=1 watcher leaving cancels its queued job", func(t *testing.T, tg target, ids map[string]string) observed {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			call(t, ctx, http.MethodPost, tg.url+"/runs?wait=1", creq(3), nil)
		}()
		var id string
		for deadline := time.Now().Add(10 * time.Second); id == ""; {
			var all []api.RunStatus
			call(t, context.Background(), http.MethodGet, tg.url+"/runs", nil, &all)
			if len(all) > 0 && all[0].State == api.StateQueued {
				id = all[0].ID
			}
			if time.Now().After(deadline) {
				t.Fatal("wait=1 job never queued")
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		<-done
		return observed{ID: id, State: waitState(t, tg.url, id, api.StateCanceled)}
	}},
	{"sweep over capacity is rejected whole", func(t *testing.T, tg target, ids map[string]string) observed {
		req := api.SweepRequest{Points: []api.RunRequest{creq(4), creq(5), creq(6)}}
		code := call(t, context.Background(), http.MethodPost, tg.url+"/sweeps", req, nil)
		var all []api.RunStatus
		call(t, context.Background(), http.MethodGet, tg.url+"/runs", nil, &all)
		var states []string
		for _, st := range all {
			states = append(states, st.ID+":"+st.State)
		}
		return observed{Code: code, More: strings.Join(states, " ")}
	}},
	{"blocker finishes", func(t *testing.T, tg target, ids map[string]string) observed {
		tg.gates.release()
		var st api.RunStatus
		code := call(t, context.Background(), http.MethodGet, tg.url+"/runs/"+ids["blocker"]+"?wait=1", nil, &st)
		return runObs(code, st)
	}},
	{"sweep wait=1", func(t *testing.T, tg target, ids map[string]string) observed {
		var st api.SweepStatus
		req := api.SweepRequest{Points: []api.RunRequest{creq(0), creq(7)}}
		code := call(t, context.Background(), http.MethodPost, tg.url+"/sweeps?wait=1", req, &st)
		var got api.SweepStatus
		gcode := call(t, context.Background(), http.MethodGet, tg.url+"/sweeps/"+st.ID, nil, &got)
		more := fmt.Sprintf("id=%s total=%d done=%d failed=%d get=%d", st.ID, st.Total, st.Done, st.Failed, gcode)
		for _, p := range got.Points {
			more += fmt.Sprintf(" %s:%s:row=%v:cached=%v", p.ID, p.State, p.Row != nil, p.Cached)
		}
		return observed{Code: code, More: more}
	}},
	{"unknown job and sweep", func(t *testing.T, tg target, _ map[string]string) observed {
		jc := call(t, context.Background(), http.MethodGet, tg.url+"/runs/j999", nil, nil)
		sc := call(t, context.Background(), http.MethodGet, tg.url+"/sweeps/s999", nil, nil)
		dc := call(t, context.Background(), http.MethodDelete, tg.url+"/runs/j999", nil, nil)
		return observed{More: fmt.Sprintf("job=%d sweep=%d cancel=%d", jc, sc, dc)}
	}},
	{"list newest first", func(t *testing.T, tg target, _ map[string]string) observed {
		var all []api.RunStatus
		code := call(t, context.Background(), http.MethodGet, tg.url+"/runs", nil, &all)
		var ids []string
		for _, st := range all {
			ids = append(ids, st.ID+":"+st.State)
		}
		return observed{Code: code, More: strings.Join(ids, " ")}
	}},
	{"metrics json through the client", func(t *testing.T, tg target, _ map[string]string) observed {
		m, err := client.New(tg.url).Metrics(context.Background())
		if err != nil {
			return observed{More: err.Error()}
		}
		return observed{More: fmt.Sprintf("done=%d canceled=%d", m.Jobs[api.StateDone], m.Jobs[api.StateCanceled])}
	}},
	{"trace", func(t *testing.T, tg target, ids map[string]string) observed {
		var d struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Pid int    `json:"pid"`
			} `json:"traceEvents"`
		}
		code := call(t, context.Background(), http.MethodGet, tg.url+"/runs/"+ids["a"]+"/trace", nil, &d)
		pids := map[int]bool{}
		for _, e := range d.TraceEvents {
			if e.Ph != "M" {
				pids[e.Pid] = true
			}
		}
		return observed{Code: code, More: fmt.Sprintf("pids=%v", pids)}
	}},
	{"pprof", func(t *testing.T, tg target, _ map[string]string) observed {
		var codes []string
		for _, p := range []string{"/", "/cmdline", "/symbol", "/profile?seconds=1", "/trace?seconds=0.1"} {
			codes = append(codes, fmt.Sprintf("%s=%d", p, call(t, context.Background(), http.MethodGet, tg.url+"/debug/pprof"+p, nil, nil)))
		}
		return observed{More: strings.Join(codes, " ")}
	}},
	{"explore bad body or app", func(t *testing.T, tg target, _ map[string]string) observed {
		body := call(t, context.Background(), http.MethodPost, tg.url+"/explore", "{", nil)
		app := call(t, context.Background(), http.MethodPost, tg.url+"/explore", cexplore("nope", 1), nil)
		return observed{More: fmt.Sprintf("body=%d app=%d", body, app)}
	}},
	{"explore submit, then wait", func(t *testing.T, tg target, _ map[string]string) observed {
		var st api.ExploreStatus
		code := call(t, context.Background(), http.MethodPost, tg.url+"/explore", cexplore("fft", 1), &st)
		submitted := fmt.Sprintf("submit=%d:%s", code, st.State)
		code = call(t, context.Background(), http.MethodGet, tg.url+"/explore/"+st.ID+"?wait=1", nil, &st)
		return observed{Code: code, ID: st.ID, State: st.State,
			More: fmt.Sprintf("%s stopped=%s frontier=%d", submitted, st.Stopped, len(st.Frontier))}
	}},
	{"explore list in submission order", func(t *testing.T, tg target, _ map[string]string) observed {
		call(t, context.Background(), http.MethodPost, tg.url+"/explore?wait=1", cexplore("fft", 2), nil)
		var all []api.ExploreStatus
		code := call(t, context.Background(), http.MethodGet, tg.url+"/explore", nil, &all)
		var ids []string
		for _, st := range all {
			ids = append(ids, st.ID+":"+st.State)
		}
		return observed{Code: code, More: strings.Join(ids, " ")}
	}},
	{"explore frontier CSV", func(t *testing.T, tg target, _ map[string]string) observed {
		resp := do(t, context.Background(), http.MethodGet, tg.url+"/explore/e1/frontier", nil)
		if resp == nil {
			return observed{}
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if header, _, _ := strings.Cut(string(body), "\n"); header != "eval,cost_cycles,speedup,cycles,label,key" {
			t.Errorf("frontier CSV header %q", header)
		}
		// The whole body: the coordinator's frontier must match the
		// daemon's byte for byte.
		return observed{Code: resp.StatusCode, More: resp.Header.Get("Content-Type") + "\n" + string(body)}
	}},
	{"third concurrent search is refused", func(t *testing.T, tg target, _ map[string]string) observed {
		var codes []int
		retry := ""
		for seed := uint64(1); seed <= 3; seed++ {
			resp := do(t, context.Background(), http.MethodPost, tg.url+"/explore", cexplore(heldApp, seed))
			if resp == nil {
				return observed{}
			}
			resp.Body.Close()
			codes = append(codes, resp.StatusCode)
			if resp.StatusCode == http.StatusTooManyRequests {
				retry = resp.Header.Get("Retry-After")
			}
		}
		return observed{More: fmt.Sprintf("codes=%v retryAfter=%s", codes, retry)}
	}},
	{"explore cancel", func(t *testing.T, tg target, _ map[string]string) observed {
		var st, other api.ExploreStatus
		code := call(t, context.Background(), http.MethodDelete, tg.url+"/explore/e3", nil, &st)
		call(t, context.Background(), http.MethodDelete, tg.url+"/explore/e4", nil, nil)
		call(t, context.Background(), http.MethodGet, tg.url+"/explore/e3?wait=1", nil, &st)
		call(t, context.Background(), http.MethodGet, tg.url+"/explore/e4?wait=1", nil, &other)
		tg.gates.releaseHeld()
		return observed{Code: code, ID: st.ID, State: st.State, More: "e4:" + other.State}
	}},
	{"unknown exploration", func(t *testing.T, tg target, _ map[string]string) observed {
		gc := call(t, context.Background(), http.MethodGet, tg.url+"/explore/e999", nil, nil)
		dc := call(t, context.Background(), http.MethodDelete, tg.url+"/explore/e999", nil, nil)
		fc := call(t, context.Background(), http.MethodGet, tg.url+"/explore/e999/frontier", nil, nil)
		return observed{More: fmt.Sprintf("get=%d cancel=%d frontier=%d", gc, dc, fc)}
	}},
	{"refused after drain or fence", func(t *testing.T, tg target, _ map[string]string) observed {
		tg.refuse()
		ec := call(t, context.Background(), http.MethodPost, tg.url+"/explore", cexplore("fft", 1), nil)
		rc := call(t, context.Background(), http.MethodPost, tg.url+"/runs", creq(0), nil)
		return observed{More: fmt.Sprintf("explore=%d run=%d", ec, rc)}
	}},
}

// cexplore is the contract's four-point search of app.
func cexplore(app string, seed uint64) explore.Request {
	return explore.Request{
		App: app, Seed: seed, SeedPoints: 4, Width: 2,
		Space: explore.Space{
			Protocols:      []harness.ProtocolKind{harness.HLRC, harness.SC},
			CommSets:       []string{"A"},
			CostSets:       []string{"O"},
			Procs:          []int{2, 4},
			HLRCUnitShifts: []uint{0},
			SCBlocks:       []int{0},
			DropPPMs:       []int64{0},
		},
	}
}

// events collects the SSE event types a target publishes.
func events(t *testing.T, ctx context.Context, base string) func() map[string]bool {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				mu.Lock()
				seen[typ] = true
				mu.Unlock()
			}
		}
	}()
	return func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

func TestJobAPIContract(t *testing.T) {
	results := map[string][]observed{}
	for _, mode := range []struct {
		name string
		make func(*testing.T) target
	}{{"daemon", newDaemonTarget}, {"coordinator", newCoordinatorTarget}} {
		tg := mode.make(t)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel) // before the target's server closes
		seen := events(t, ctx, tg.url)
		ids := map[string]string{}
		for _, s := range contractScript {
			results[mode.name] = append(results[mode.name], s.do(t, tg, ids))
		}
		deadline := time.Now().Add(5 * time.Second)
		for _, typ := range []string{"jobQueued", "jobStarted", "jobDone", "jobCanceled", "sweepProgress",
			api.EventExploreStarted, api.EventExploreProgress, api.EventExploreFrontier,
			api.EventExploreDone, api.EventExploreCanceled} {
			for !seen()[typ] && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if !seen()[typ] {
				t.Errorf("%s: no %s event on /events", mode.name, typ)
			}
		}
		cancel()
	}

	// The daemon run pins the expected answers; the coordinator must
	// observe exactly the same.
	d, c := results["daemon"], results["coordinator"]
	want := map[string]observed{
		"healthz":                             {Code: 200, More: "ok=true version=" + server.Version},
		"submit wait=1":                       {Code: 200, ID: "j1", State: api.StateDone, HasRow: true},
		"concurrent identical POSTs coalesce": {Code: 202, ID: "j2", More: "codes=[202 202] same=true"},
		"cancel a queued job":                 {Code: 200, ID: "j3", State: api.StateCanceled, More: "was queued"},
		"sweep over capacity is rejected whole": {Code: 429,
			More: "j6:canceled j5:canceled j4:canceled j3:canceled j2:running j1:done"},
		"blocker finishes":                   {Code: 200, ID: "j2", State: api.StateDone, HasRow: true},
		"metrics json through the client":    {More: "done=4 canceled=4"},
		"trace":                              {Code: 200, More: "pids=map[0:true 1:true]"},
		"unknown job and sweep":              {More: "job=404 sweep=404 cancel=404"},
		"pprof":                              {More: "/=200 /cmdline=200 /symbol=200 /profile?seconds=1=200 /trace?seconds=0.1=200"},
		"explore bad body or app":            {More: "body=400 app=400"},
		"explore list in submission order":   {Code: 200, More: "e1:done e2:done"},
		"third concurrent search is refused": {More: "codes=[202 202 429] retryAfter=5"},
		"explore cancel":                     {Code: 200, ID: "e3", State: api.StateCanceled, More: "e4:canceled"},
		"unknown exploration":                {More: "get=404 cancel=404 frontier=404"},
		"refused after drain or fence":       {More: "explore=503 run=503"},
	}
	for i, s := range contractScript {
		if w, ok := want[s.name]; ok && !reflect.DeepEqual(d[i], w) {
			t.Errorf("daemon %q = %+v, want %+v", s.name, d[i], w)
		}
		t.Logf("%s: %+v", s.name, d[i])
		if !reflect.DeepEqual(c[i], d[i]) {
			t.Errorf("%q: coordinator %+v, daemon %+v", s.name, c[i], d[i])
		}
	}
}
