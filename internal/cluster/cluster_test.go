package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// Integration tests: real worker daemons behind real agents leasing
// over HTTP from a real coordinator.  The acceptance bar throughout is
// byte-identity — a sweep through the cluster must produce rows
// indistinguishable from a single local daemon, including across a
// worker death and a coordinator failover.

func newWorkerDaemon(t *testing.T, parallel int) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// startAgent runs a worker agent until test cleanup (or the returned
// cancel, for tests that kill a worker mid-sweep).
func startAgent(t *testing.T, id string, coords []string, srv *server.Server) context.CancelFunc {
	t.Helper()
	agent, err := NewWorker(WorkerConfig{
		ID: id, Coordinators: coords, Server: srv,
		Poll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// localRow computes the single-daemon reference row for a request.
func localRow(t *testing.T, local *server.Server, req api.RunRequest) *harness.RunRow {
	t.Helper()
	row, _, err := local.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("local execute: %v", err)
	}
	return row
}

func rowsEqual(t *testing.T, got, want *harness.RunRow, what string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no row", what)
	}
	gj, err1 := json.Marshal(got)
	wj, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: cluster row differs from local:\n cluster %s\n local   %s", what, gj, wj)
	}
}

// A sweep sharded across three workers returns rows byte-identical to
// a single local daemon, each point simulated exactly once cluster-wide.
func TestClusterSweepMatchesLocal(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		NodeID:       "coord",
		HeartbeatTTL: 2 * time.Second,
		PollWait:     100 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	daemons := make([]*server.Server, 3)
	for i, id := range []string{"w1", "w2", "w3"} {
		daemons[i] = newWorkerDaemon(t, 2)
		startAgent(t, id, []string{ts.URL}, daemons[i])
	}

	var points []api.RunRequest
	for procs := 1; procs <= 8; procs++ {
		points = append(points, creq(procs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := client.New(ts.URL).Sweep(ctx, api.SweepRequest{Points: points})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if st.Done != len(points) || st.Failed != 0 {
		t.Fatalf("sweep finished done=%d failed=%d of %d", st.Done, st.Failed, st.Total)
	}

	local := newWorkerDaemon(t, 2)
	executors := map[string]bool{}
	for i, p := range st.Points {
		rowsEqual(t, p.Row, localRow(t, local, points[i]), p.ID)
		executors[p.Worker] = true
	}
	if len(executors) < 2 {
		t.Fatalf("sweep did not shard: all points executed by %v", executors)
	}

	// Exactly-once accounting: 8 distinct points, 8 simulations total
	// across the fleet, no duplicate completions, no re-dispatches.
	var runs int64
	for _, d := range daemons {
		runs += d.RunnerStats().Runs
	}
	if runs != int64(len(points)) {
		t.Fatalf("fleet ran %d simulations for %d points", runs, len(points))
	}
	cst := c.Status()
	if cst.Duplicates != 0 || cst.Redispatches != 0 {
		t.Fatalf("clean sweep recorded duplicates=%d redispatches=%d", cst.Duplicates, cst.Redispatches)
	}
}

// Killing a worker mid-sweep re-dispatches its leased jobs after
// heartbeat lapse, and the sweep still completes with rows identical
// to a local run.
func TestClusterWorkerDeathRedispatch(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		NodeID:       "coord",
		HeartbeatTTL: 100 * time.Millisecond,
		PollWait:     50 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	survivor := newWorkerDaemon(t, 2)
	startAgent(t, "survivor", []string{ts.URL}, survivor)

	// The victim's daemon never finishes a simulation: it blocks until
	// the test releases it, so any job it leases is stuck until the
	// coordinator declares the worker dead and re-dispatches.
	victim := newWorkerDaemon(t, 2)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unblock detached jobs so Drain returns
	victim.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, errors.New("victim released after death")
		}
	})
	killVictim := startAgent(t, "victim", []string{ts.URL}, victim)

	var points []api.RunRequest
	for procs := 1; procs <= 10; procs++ {
		points = append(points, creq(procs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(ts.URL)
	var ids []string
	for _, p := range points {
		st, err := cl.Submit(ctx, p)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}

	// Wait until the victim actually holds a lease, then kill it.  The
	// held job cannot complete (its simulator is blocked), so this never
	// races with the sweep finishing early.
	deadline := time.Now().Add(10 * time.Second)
	for {
		leased := 0
		for _, w := range c.Status().Workers {
			if w.ID == "victim" {
				leased = w.Leased
			}
		}
		if leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killVictim()

	local := newWorkerDaemon(t, 2)
	for i, id := range ids {
		st, err := cl.Get(ctx, id, true)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		rowsEqual(t, st.Row, localRow(t, local, points[i]), id)
	}
	cst := c.Status()
	if cst.Redispatches == 0 {
		t.Fatal("worker death caused no re-dispatches")
	}
	for _, w := range cst.Workers {
		if w.ID == "victim" {
			t.Fatalf("dead victim still in membership: %+v", cst.Workers)
		}
	}
}

// Coordinator failover: the standby tails the primary's log, promotes
// itself on silence with a higher epoch, re-learns the worker from its
// lease polls, and finishes the sweep — rows byte-identical to local.
func TestClusterFailover(t *testing.T) {
	a := newTestCoordinator(t, CoordinatorConfig{
		NodeID:       "A",
		HeartbeatTTL: 200 * time.Millisecond,
		PollWait:     50 * time.Millisecond,
	})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	b := newTestCoordinator(t, CoordinatorConfig{
		NodeID:        "B",
		PeerURL:       tsA.URL,
		FailoverAfter: 250 * time.Millisecond,
		HeartbeatTTL:  200 * time.Millisecond,
		PollWait:      50 * time.Millisecond,
	})
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsB.Close)
	if b.Role() != api.RoleStandby {
		t.Fatalf("standby booted as %s", b.Role())
	}

	// The worker's simulator is gated so jobs are still in flight when
	// the primary dies; the gate opens right after the kill.
	srvW := newWorkerDaemon(t, 2)
	gate := make(chan struct{})
	srvW.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return harness.RunContext(ctx, spec)
	})
	startAgent(t, "w", []string{tsA.URL, tsB.URL}, srvW)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	clA := client.New(tsA.URL)
	var points []api.RunRequest
	var ids []string
	for procs := 1; procs <= 4; procs++ {
		points = append(points, creq(procs))
		st, err := clA.Submit(ctx, points[len(points)-1])
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}

	// Let replication catch the standby up to every submit before the
	// primary dies — the log tail is the failover's source of truth.
	target := a.Status().LogSeq
	deadline := time.Now().Add(10 * time.Second)
	for b.Status().LogSeq < target {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at seq %d, primary at %d", b.Status().LogSeq, target)
		}
		time.Sleep(5 * time.Millisecond)
	}

	tsA.Close()
	a.Stop()
	close(gate)

	// Every job must land on the promoted standby: completed-but-lost
	// work re-dispatches to the same ring home and is answered from the
	// worker's warm store/memo, so rows stay exactly-once and identical.
	clB := client.New(tsB.URL)
	local := newWorkerDaemon(t, 2)
	for i, id := range ids {
		st, err := clB.Get(ctx, id, true)
		if err != nil {
			t.Fatalf("get %s from standby: %v", id, err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job %s finished %s (%s) after failover", id, st.State, st.Error)
		}
		rowsEqual(t, st.Row, localRow(t, local, points[i]), id)
	}
	if b.Role() != api.RolePrimary {
		t.Fatalf("standby never promoted: role=%s", b.Role())
	}
	if e := b.Epoch(); e < 2 {
		t.Fatalf("promoted epoch = %d, want >= 2", e)
	}
}

// exploreReq is the compact 8-point search the cluster explore test
// runs: the same shape the daemon-side tests use.
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

// An exploration submitted to the coordinator shards its candidate
// batches across the workers and converges on the same frontier a
// local search finds; a standby refuses to explore.
func TestClusterExplore(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		HeartbeatTTL: 10 * time.Second,
		StoreDir:     t.TempDir(),
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	for i, n := range []string{"w1", "w2"} {
		startAgent(t, n, []string{ts.URL}, newWorkerDaemon(t, 2+i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := client.New(ts.URL)
	st, err := cl.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatalf("cluster explore: %v", err)
	}
	if st.State != api.StateDone || st.Stopped != "converged" {
		t.Fatalf("cluster explore = %s/%s (%s)", st.State, st.Stopped, st.Error)
	}
	if len(st.Frontier) == 0 {
		t.Fatal("cluster explore found nothing")
	}

	// The local reference: same request, fresh session.
	rep, err := explore.Run(ctx, exploreReq(),
		explore.SessionEvaluator{Ses: harness.NewSession(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := json.Marshal(st.Frontier)
	lf, _ := json.Marshal(rep.Frontier)
	if !bytes.Equal(cf, lf) {
		t.Fatalf("cluster frontier differs from local:\n cluster %s\n local   %s", cf, lf)
	}

	// A fenced (standby) coordinator refuses new explorations.
	c.lease(api.ClusterLeaseRequest{WorkerID: "w1", Slots: 1, Epoch: c.Epoch() + 1})
	cl.Retries = -1
	if _, err := cl.SubmitExplore(ctx, exploreReq()); client.StatusCode(err) != 503 {
		t.Fatalf("explore on standby = %v, want 503", err)
	}
}
