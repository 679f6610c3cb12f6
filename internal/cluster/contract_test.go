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

	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// The job-API contract: one script, run against a daemon and against a
// coordinator with one in-process worker, must observe the same status
// codes, states, rows and cache flags.  A client cannot tell the two
// apart.

// target is one service under contract: its base URL, and release,
// which opens the gate that holds the blocker spec's simulation.
type target struct {
	url     string
	release func()
}

// blocker is the spec whose simulation parks until the target's gate
// opens: it holds the single execution slot so later jobs stay queued.
var blocker = cspec(2)

// gatedRun simulates every spec directly, holding the blocker's run
// until gate closes.
func gatedRun(gate chan struct{}) func(context.Context, harness.RunSpec) (*harness.Result, error) {
	return func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		if spec == blocker {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return harness.RunContext(ctx, spec)
	}
}

// newDaemonTarget's queue holds four: a daemon's canceled jobs keep
// their queue slots until a worker skips them, so after the script's
// two cancellations it has the two free slots the coordinator target's
// one worker queue has.
func newDaemonTarget(t *testing.T) target {
	s, err := server.New(server.Config{Parallel: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.SetRunFunc(gatedRun(gate))
	ts := httptest.NewServer(s.Handler())
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return target{url: ts.URL, release: release}
}

func newCoordinatorTarget(t *testing.T) target {
	c := newTestCoordinator(t, CoordinatorConfig{QueueDepth: 2, HeartbeatTTL: 10 * time.Second})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	w := newWorkerDaemon(t, 1)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before the worker's drain
	w.SetRunFunc(gatedRun(gate))
	startAgent(t, "w1", []string{ts.URL}, w)
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Status().Workers) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return target{url: ts.URL, release: release}
}

// call performs one request and decodes a 2xx JSON reply into out.  It
// runs on helper goroutines too, so a failure is reported with Errorf
// and returns code 0.
func call(t *testing.T, ctx context.Context, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		t.Error(err)
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			t.Error(err)
		}
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
		tg.release()
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
		for _, typ := range []string{"jobQueued", "jobStarted", "jobDone", "jobCanceled", "sweepProgress"} {
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
		"blocker finishes":                {Code: 200, ID: "j2", State: api.StateDone, HasRow: true},
		"metrics json through the client": {More: "done=4 canceled=4"},
		"trace":                           {Code: 200, More: "pids=map[0:true 1:true]"},
		"unknown job and sweep":           {More: "job=404 sweep=404 cancel=404"},
		"pprof":                           {More: "/=200 /cmdline=200 /symbol=200 /profile?seconds=1=200 /trace?seconds=0.1=200"},
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
