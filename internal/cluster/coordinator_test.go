package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swsm/internal/apps"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/sim"
)

// cspec is the i-th canonical fast test point: fft at Tiny scale, with
// the processor count cycling through fft-legal powers of two and the
// host overhead nudged so every index yields a distinct content key.
func cspec(i int) harness.RunSpec {
	spec := harness.DefaultSpec("fft", harness.HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 1 << (i % 3)
	spec.Comm.HostOverhead += sim.Time(i / 3)
	return spec
}

func creq(i int) api.RunRequest { return api.RunRequest{Spec: cspec(i)} }

// crow fabricates a plausible result row for direct protocol-level
// tests that never touch a real simulator.
func crow(i int) *harness.RunRow {
	spec := cspec(i)
	return &harness.RunRow{Key: spec.Key(), Spec: spec, Cycles: int64(1000 + i)}
}

// submit admits one request through the coordinator's job front end,
// as POST /runs without wait does, and reports the job's status and the
// HTTP code.
func submit(c *Coordinator, req api.RunRequest) (api.RunStatus, int) {
	var st api.RunStatus
	code := serve(c, http.MethodPost, "/runs", req, &st)
	return st, code
}

// job fetches one job's status; wait parks until it is terminal.
func job(t *testing.T, c *Coordinator, id string, wait bool) api.RunStatus {
	t.Helper()
	path := "/runs/" + id
	if wait {
		path += "?wait=1"
	}
	var st api.RunStatus
	if code := serve(c, http.MethodGet, path, nil, &st); code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, code)
	}
	return st
}

// serve runs one request against the coordinator's handler in-process
// and decodes the JSON reply into out.
func serve(c *Coordinator, method, path string, body, out any) int {
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if out != nil {
		json.Unmarshal(rec.Body.Bytes(), out)
	}
	return rec.Code
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if cfg.NodeID == "" {
		cfg.NodeID = "coord-test"
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// A submission with no workers parks unassigned; the first lease poll
// registers the worker, drains the backlog onto it, and grants the job
// — the exact sequence a freshly promoted primary goes through.
func TestCoordinatorUnassignedThenLease(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	j, code := submit(c, creq(2))
	if code != http.StatusAccepted || j.ID == "" {
		t.Fatalf("submit: code=%d status=%+v", code, j)
	}
	if st := c.Status(); st.Unassigned != 1 {
		t.Fatalf("unassigned = %d, want 1", st.Unassigned)
	}
	resp := c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 2})
	if resp.Role != api.RolePrimary || len(resp.Jobs) != 1 || resp.Jobs[0].ID != j.ID {
		t.Fatalf("lease = %+v, want the one unassigned job", resp)
	}
	if resp.Jobs[0].Stolen {
		t.Fatal("own-queue grant marked stolen")
	}

	ack, err := c.complete(api.ClusterCompleteRequest{WorkerID: "a", JobID: j.ID, Row: crow(2)})
	if err != nil || ack.Duplicate {
		t.Fatalf("complete: %+v err=%v", ack, err)
	}
	if j = job(t, c, j.ID, true); j.State != api.StateDone || j.Row == nil || j.Worker != "a" {
		t.Fatalf("job after complete: state=%s worker=%s", j.State, j.Worker)
	}

	// Completion is idempotent: a second report acks as a duplicate.
	ack, err = c.complete(api.ClusterCompleteRequest{WorkerID: "a", JobID: j.ID, Row: crow(2)})
	if err != nil || !ack.Duplicate {
		t.Fatalf("duplicate complete: %+v err=%v", ack, err)
	}
	if st := c.Status(); st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
	// Unknown jobs are rejected distinctly (worker drops the result).
	if _, err := c.complete(api.ClusterCompleteRequest{WorkerID: "a", JobID: "j999"}); !errors.Is(err, errUnknownJob) {
		t.Fatalf("unknown-job complete err = %v", err)
	}
}

// Identical live submissions coalesce onto one job.
func TestCoordinatorCoalesce(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	j1, code1 := submit(c, creq(3))
	j2, code2 := submit(c, creq(3))
	if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
		t.Fatal(code1, code2)
	}
	var all []api.RunStatus
	serve(c, http.MethodGet, "/runs", nil, &all)
	if len(all) != 1 || j1.ID != j2.ID {
		t.Fatalf("coalesce: %d jobs, ids %s,%s", len(all), j1.ID, j2.ID)
	}
}

// An idle worker steals from the tail of a backlogged one, and the
// grant is flagged so the victim's Stolen counter accounts for it.
func TestCoordinatorSteal(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 1})
	c.lease(api.ClusterLeaseRequest{WorkerID: "b", Slots: 1})

	// Pick points until worker a owns at least 3 keys (placement is the
	// deterministic ring function, so the test can precompute homes).
	ring := NewRing(0)
	ring.Add("a")
	ring.Add("b")
	aOwned := 0
	for procs := 1; aOwned < 3 && procs < 64; procs++ {
		if _, code := submit(c, creq(procs)); code != http.StatusAccepted {
			t.Fatal(code)
		}
		if ring.Lookup(cspec(procs).Key()) == "a" {
			aOwned++
		}
	}
	if aOwned < 3 {
		t.Fatal("could not construct 3 keys homed on worker a")
	}

	// a leases one job: now busy (leased >= slots) with a backlog.
	if got := c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 1, Max: 1}); len(got.Jobs) != 1 {
		t.Fatalf("a lease = %+v", got)
	}
	// b drains its own queue first, then steals a's tail.
	resp := c.lease(api.ClusterLeaseRequest{WorkerID: "b", Slots: 1, Max: 100})
	stolen := 0
	for _, lj := range resp.Jobs {
		if lj.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatalf("b leased %d jobs, none stolen from backlogged a", len(resp.Jobs))
	}
	st := c.Status()
	for _, w := range st.Workers {
		if w.ID == "a" && w.Stolen != int64(stolen) {
			t.Fatalf("a.Stolen = %d, want %d", w.Stolen, stolen)
		}
		if w.ID == "a" && w.Queued != 0 {
			t.Fatalf("a still has %d queued after steal", w.Queued)
		}
	}
}

// The lease poll's Held list is the lease: a job the holder keeps
// naming stays running for as long as it polls, and a job it stops
// naming — a restart under the same ID, or a grant whose response never
// arrived — is re-dispatched on that very poll, with no timer involved.
func TestCoordinatorUnheldLeaseRedispatches(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	poll := func(worker string, max int, held ...string) api.ClusterLeaseResponse {
		return c.lease(api.ClusterLeaseRequest{WorkerID: worker, Slots: 2, Max: max, Held: held})
	}
	check := func(step, id, state, worker string, redispatches int64) {
		t.Helper()
		if st := job(t, c, id, false); st.State != state || st.Worker != worker {
			t.Fatalf("%s: job %s state=%s worker=%q, want %s on %q", step, id, st.State, st.Worker, state, worker)
		}
		if got := c.Status().Redispatches; got != redispatches {
			t.Fatalf("%s: Redispatches = %d, want %d", step, got, redispatches)
		}
	}

	// Held keeps a job running across polls.
	j := leasedJob(t, c, 2)
	for i := 0; i < 3; i++ {
		poll("a", 0, j.ID)
	}
	check("held", j.ID, api.StateRunning, "a", 0)

	// A restarted worker holds nothing: its first poll gives the job
	// back, and the same poll can lease it again.
	if got := poll("a", 1); len(got.Jobs) != 1 || got.Jobs[0].ID != j.ID {
		t.Fatalf("restarted worker's first poll = %+v, want %s re-leased", got, j.ID)
	}
	check("restart", j.ID, api.StateRunning, "a", 1)

	// A grant missing from the next poll (its response was lost) is
	// re-dispatched; the holder's other lease is untouched.
	j2, code := submit(c, creq(3))
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	if got := poll("a", 1, j.ID); len(got.Jobs) != 1 || got.Jobs[0].ID != j2.ID {
		t.Fatalf("lease = %+v, want %s", got, j2.ID)
	}
	poll("a", 0, j.ID)
	check("lost grant", j2.ID, api.StateQueued, "a", 2)
	check("lost grant", j.ID, api.StateRunning, "a", 2)
	if got := poll("a", 1, j.ID); len(got.Jobs) != 1 || got.Jobs[0].ID != j2.ID {
		t.Fatalf("re-lease = %+v, want %s", got, j2.ID)
	}

	// Naming an unknown job, a duplicate, or another worker's job
	// changes nothing.
	poll("b", 0)
	ring := NewRing(0)
	ring.Add("a")
	ring.Add("b")
	i := 4
	for ring.Lookup(cspec(i).Key()) != "b" {
		i++
	}
	jb, code := submit(c, creq(i))
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	if got := poll("b", 1); len(got.Jobs) != 1 || got.Jobs[0].ID != jb.ID {
		t.Fatalf("b lease = %+v, want %s", got, jb.ID)
	}
	poll("a", 0, j.ID, j2.ID, j.ID, "j999", jb.ID)
	check("stray names", j.ID, api.StateRunning, "a", 2)
	check("stray names", j2.ID, api.StateRunning, "a", 2)
	check("stray names", jb.ID, api.StateRunning, "b", 2)
}

// svmd_run_seconds observes a coordinator's jobs too: a job leased and
// completed once counts once.
func TestCoordinatorRunSecondsCountsLeasedJob(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	j := leasedJob(t, c, 2)
	for i := 0; i < 2; i++ { // the second report is a duplicate
		if _, err := c.complete(api.ClusterCompleteRequest{WorkerID: "a", JobID: j.ID, Row: crow(2)}); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{`svmd_jobs_total{state="done"} 1`, "svmd_run_seconds_count 1"} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// A message carrying a higher epoch fences the primary: it steps down
// and refuses writes.
func TestCoordinatorEpochFence(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	resp := c.lease(api.ClusterLeaseRequest{WorkerID: "w", Slots: 1, Epoch: 5})
	if resp.Role != api.RoleStandby || resp.Epoch != 5 {
		t.Fatalf("fenced lease response = %+v", resp)
	}
	c.fe.Lock()
	err := c.Admit()
	c.fe.Unlock()
	if _, code := submit(c, creq(2)); code != http.StatusServiceUnavailable || !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("submit on fenced coordinator = %d, admit err = %v", code, err)
	}
	if got := c.Role(); got != api.RoleStandby {
		t.Fatalf("role = %s", got)
	}
}

// The replicated log long-poll returns immediately when records exist,
// wakes on a fresh append, and gives up empty at the poll deadline.
func TestCoordinatorWaitLog(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		HeartbeatTTL: 10 * time.Second,
		PollWait:     150 * time.Millisecond,
	})
	if _, code := submit(c, creq(2)); code != http.StatusAccepted {
		t.Fatal(code)
	}
	r := c.waitLog(context.Background(), 1, false)
	if len(r.Records) == 0 || r.Records[0].Seq != 1 || r.NextSeq != r.Records[len(r.Records)-1].Seq+1 {
		t.Fatalf("waitLog(1) = %+v", r)
	}
	if r.Records[0].Type != api.ClusterLogSubmit || r.Records[0].Req == nil {
		t.Fatalf("first record = %+v, want the replicated submit", r.Records[0])
	}

	// A long-poll parked past the tail wakes on the next append.
	go func() {
		time.Sleep(20 * time.Millisecond)
		submit(c, creq(3))
	}()
	start := time.Now()
	r2 := c.waitLog(context.Background(), r.NextSeq, true)
	if len(r2.Records) == 0 {
		t.Fatal("long-poll returned empty despite an append")
	}
	if d := time.Since(start); d > 140*time.Millisecond {
		t.Fatalf("long-poll slept to the deadline (%v) instead of waking on append", d)
	}

	// Nothing new: the poll holds for PollWait, then returns empty.
	start = time.Now()
	r3 := c.waitLog(context.Background(), r2.NextSeq+100, true)
	if len(r3.Records) != 0 {
		t.Fatalf("poll past the tail returned records: %+v", r3)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("empty long-poll returned after %v, want ~PollWait hold", d)
	}
}

// The coordinator's own store is the top cache tier: a spec completed
// once is answered on resubmission without dispatching anything.
func TestCoordinatorStoreTier(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		HeartbeatTTL: 10 * time.Second,
		StoreDir:     t.TempDir(),
	})
	c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 2})
	j1, code := submit(c, creq(4))
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	if got := c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 1}); len(got.Jobs) != 1 {
		t.Fatalf("lease = %+v", got)
	}
	if _, err := c.complete(api.ClusterCompleteRequest{WorkerID: "a", JobID: j1.ID, Row: crow(4)}); err != nil {
		t.Fatal(err)
	}

	j2, code := submit(c, creq(4))
	if code != http.StatusOK || j2.ID == j1.ID {
		t.Fatalf("resubmit: code=%d same=%v", code, j2.ID == j1.ID)
	}
	if j2.State != api.StateDone || !j2.Cached || j2.Row == nil {
		t.Fatalf("resubmit not served from store: state=%s cached=%v", j2.State, j2.Cached)
	}
	if j2.Row.Cycles != crow(4).Cycles {
		t.Fatalf("cached row cycles = %d, want %d", j2.Row.Cycles, crow(4).Cycles)
	}
	st := c.Status()
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
	for _, w := range st.Workers {
		if w.Queued != 0 {
			t.Fatalf("cache hit still dispatched: %+v", w)
		}
	}
}

// Replication lag: a primary with no follower reports its whole log as
// backlog; a follower's log poll acknowledges the prefix it has and
// drives the lag back to zero.
func TestCoordinatorReplicationLagPrimary(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	if _, code := submit(c, creq(0)); code != http.StatusAccepted {
		t.Fatal(code)
	}
	if _, code := submit(c, creq(1)); code != http.StatusAccepted {
		t.Fatal(code)
	}
	st := c.Status()
	if st.LogSeq != 2 || st.StandbySeq != 0 || st.ReplicationLag != 2 {
		t.Fatalf("pre-ack status: logSeq=%d standbySeq=%d lag=%d, want 2/0/2",
			st.LogSeq, st.StandbySeq, st.ReplicationLag)
	}

	// A poll starting at seq 3 acknowledges records 1..2.
	c.waitLog(context.Background(), 3, false)
	st = c.Status()
	if st.StandbySeq != 2 || st.ReplicationLag != 0 {
		t.Fatalf("post-ack status: standbySeq=%d lag=%d, want 2/0", st.StandbySeq, st.ReplicationLag)
	}

	// Acknowledgements never regress: an older replayed poll is ignored.
	c.waitLog(context.Background(), 2, false)
	if st := c.Status(); st.StandbySeq != 2 {
		t.Fatalf("stale poll regressed standbySeq to %d", st.StandbySeq)
	}
}

// A live standby reports how far it trails the primary's log head, and
// catches up to zero lag.
func TestCoordinatorReplicationLagStandby(t *testing.T) {
	a := newTestCoordinator(t, CoordinatorConfig{
		NodeID:       "A",
		HeartbeatTTL: 10 * time.Second,
		PollWait:     50 * time.Millisecond,
	})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	b := newTestCoordinator(t, CoordinatorConfig{
		NodeID:        "B",
		PeerURL:       tsA.URL,
		FailoverAfter: time.Hour, // never promote in this test
		HeartbeatTTL:  10 * time.Second,
		PollWait:      50 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		if _, code := submit(a, creq(i)); code != http.StatusAccepted {
			t.Fatal(code)
		}
	}
	target := a.Status().LogSeq
	deadline := time.Now().Add(10 * time.Second)
	for b.Status().LogSeq < target {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at seq %d, primary at %d", b.Status().LogSeq, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := b.Status()
		if st.ReplicationLag < 0 {
			t.Fatalf("negative standby lag: %+v", st)
		}
		if st.ReplicationLag == 0 && st.StandbySeq == target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby lag never reached 0: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The primary has seen the standby's polls too.
	deadlineA := time.Now().Add(10 * time.Second)
	for a.Status().ReplicationLag != 0 {
		if time.Now().After(deadlineA) {
			t.Fatalf("primary still reports lag %d", a.Status().ReplicationLag)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leasedJob submits creq(i) and leases it to worker "a".
func leasedJob(t *testing.T, c *Coordinator, i int) api.RunStatus {
	t.Helper()
	c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 2})
	j, code := submit(c, creq(i))
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	if got := c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 1}); len(got.Jobs) != 1 {
		t.Fatalf("lease = %+v", got)
	}
	return j
}

// A completion must carry a row for the job's own spec, or an error:
// anything else is rejected with 400, the job stays leased, and the
// coordinator's store stays empty.
func TestCoordinatorRejectsBadCompletions(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  *harness.RunRow
	}{
		{"neither row nor error", nil},
		{"row for another spec", crow(2)}, // creq(1) is a 2-proc spec, crow(2) a 4-proc row
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second, StoreDir: t.TempDir()})
			j := leasedJob(t, c, 1)
			req := api.ClusterCompleteRequest{WorkerID: "a", JobID: j.ID, Row: tc.row}
			if code := serve(c, http.MethodPost, "/cluster/complete", req, nil); code != http.StatusBadRequest {
				t.Fatalf("complete = %d, want 400", code)
			}
			if st := job(t, c, j.ID, false); st.State != api.StateRunning || st.Row != nil {
				t.Fatalf("job after rejected completion: state=%s row=%v", st.State, st.Row)
			}
			if n := c.fe.StoreStats().Puts; n != 0 {
				t.Fatalf("rejected completion wrote %d store entries", n)
			}
		})
	}
}

// GET /cluster/log reads an absent from as 1 and rejects a non-numeric
// one with 400.
func TestCoordinatorLogFrom(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: 10 * time.Second})
	if _, code := submit(c, creq(2)); code != http.StatusAccepted {
		t.Fatal(code)
	}
	var r api.ClusterLogResponse
	if code := serve(c, http.MethodGet, "/cluster/log", nil, &r); code != http.StatusOK || len(r.Records) == 0 || r.Records[0].Seq != 1 {
		t.Fatalf("log without from = %d %+v", code, r)
	}
	if code := serve(c, http.MethodGet, "/cluster/log?from=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("log from=x = %d, want 400", code)
	}
}
