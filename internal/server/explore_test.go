package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// exploreReq is the compact 8-point search space every daemon-side
// explore test uses.
func exploreReq() explore.Request {
	return explore.Request{
		App:        "fft",
		Scale:      0,
		Seed:       11,
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

// The /explore endpoint runs a search through the daemon's own job
// pipeline: a cold run simulates, a restarted daemon over the same
// store replays the identical frontier with zero fresh simulations.
func TestExploreEndToEndAndWarmRestart(t *testing.T) {
	s1, _, c1, dir := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cold, err := c1.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if cold.State != api.StateDone || cold.Stopped != "converged" {
		t.Fatalf("cold explore = %s/%s (%s)", cold.State, cold.Stopped, cold.Error)
	}
	if len(cold.Frontier) == 0 {
		t.Fatal("cold explore found nothing")
	}
	if cold.Progress.SimsRun == 0 {
		t.Fatal("cold explore simulated nothing")
	}
	for i := 1; i < len(cold.Frontier); i++ {
		if cold.Frontier[i].CostCycles <= cold.Frontier[i-1].CostCycles ||
			cold.Frontier[i].Speedup <= cold.Frontier[i-1].Speedup {
			t.Fatalf("frontier not strictly monotone at %d: %+v", i, cold.Frontier)
		}
	}
	// Every frontier row is individually resolvable through the run API
	// by content key (the daemon computed and stored it).
	for _, p := range cold.Frontier {
		if p.Key == "" {
			t.Fatalf("frontier point %s has no key", p.Label)
		}
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s1.Drain(drainCtx)

	// Restart over the same store: same request, zero new simulations,
	// byte-identical frontier.
	_, _, c2 := newTestServer(t, Config{Parallel: 2, StoreDir: dir})
	warm, err := c2.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatalf("warm explore: %v", err)
	}
	if warm.Progress.SimsRun != 0 {
		t.Errorf("warm explore ran %d fresh simulations, want 0", warm.Progress.SimsRun)
	}
	cf, _ := json.Marshal(cold.Frontier)
	wf, _ := json.Marshal(warm.Frontier)
	if string(cf) != string(wf) {
		t.Errorf("warm frontier diverged:\ncold: %s\nwarm: %s", cf, wf)
	}
}

// A search has one record wherever it runs: run cold in-process over
// the session and cold through POST /explore?wait=1, the two Reports
// marshal to identical bytes.
func TestExploreReportSameLocalAndDaemon(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Parallel: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	local, err := explore.Run(ctx, exploreReq(), explore.SessionEvaluator{Ses: harness.NewSession(2)}, nil)
	if err != nil {
		t.Fatalf("local explore: %v", err)
	}
	body, _ := json.Marshal(exploreReq())
	resp, err := http.Post(ts.URL+"/explore?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.ExploreStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != api.StateDone {
		t.Fatalf("POST /explore?wait=1 = %d %s (%s)", resp.StatusCode, st.State, st.Error)
	}
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(st.Report)
	if string(lb) != string(rb) {
		t.Errorf("reports differ:\nlocal:  %s\ndaemon: %s", lb, rb)
	}
}

// Explore lifecycle events ride the daemon's existing SSE channel with
// the status under the "explore" field.
func TestExploreEventsOnSSE(t *testing.T) {
	_, ts, c, _ := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if _, err := c.Explore(ctx, exploreReq()); err != nil {
		t.Fatalf("explore: %v", err)
	}

	seen := map[string]bool{}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type    string             `json:"type"`
			Explore *api.ExploreStatus `json:"explore"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		if strings.HasPrefix(ev.Type, "explore") {
			if ev.Explore == nil {
				t.Fatalf("event %s missing explore status", ev.Type)
			}
			seen[ev.Type] = true
		}
		if ev.Type == api.EventExploreDone {
			break
		}
	}
	for _, want := range []string{api.EventExploreStarted, api.EventExploreProgress, api.EventExploreFrontier, api.EventExploreDone} {
		if !seen[want] {
			t.Errorf("SSE never carried %s (saw %v)", want, seen)
		}
	}
}

// A draining daemon refuses new explorations with 503.
func TestExploreDrainingRefused(t *testing.T) {
	s, _, c, _ := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	c.Retries = -1
	_, err := c.SubmitExplore(ctx, exploreReq())
	if err == nil || client.StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("submit on draining daemon = %v, want 503", err)
	}
}

// Drain cancels running searches and waits for their drivers before it
// closes the executor.
func TestExploreDrainCancelsSearches(t *testing.T) {
	s, _, c, _ := blockingServer(t, Config{Parallel: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitExplore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	// The held baseline job outlives the deadline and is cancelled.
	dctx, dcancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer dcancel()
	s.Drain(dctx)
	s.mu.Lock()
	state := s.explorations[0].state
	s.mu.Unlock()
	if state != api.StateCanceled {
		t.Fatalf("search %s after drain = %s, want canceled", st.ID, state)
	}
}
