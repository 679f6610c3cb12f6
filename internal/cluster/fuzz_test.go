package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swsm/internal/server/api"
)

// FuzzLeaseBody posts arbitrary bytes as a /cluster/lease body and then
// as a /cluster/complete body to a coordinator holding queued and leased
// jobs.  Neither may panic, a body that is not one well-formed request
// gets a 4xx, and after every call each admitted job is in exactly one
// of queued, leased or terminal — so never leased to two workers.
func FuzzLeaseBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c := newTestCoordinator(t, CoordinatorConfig{HeartbeatTTL: time.Minute})
		c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 1})
		c.lease(api.ClusterLeaseRequest{WorkerID: "b", Slots: 1})
		var ids []string
		for i := 0; i < 4; i++ {
			j, code := submit(c, creq(i))
			if code != http.StatusAccepted {
				t.Fatalf("submit %d = %d", i, code)
			}
			ids = append(ids, j.ID)
		}
		c.lease(api.ClusterLeaseRequest{WorkerID: "a", Slots: 1, Max: 1})

		var lease api.ClusterLeaseRequest
		malformed := json.Unmarshal(body, &lease) != nil || lease.WorkerID == ""
		post(t, c, "/cluster/lease", body, malformed)
		checkJobPlacement(t, c, ids)

		var done api.ClusterCompleteRequest
		malformed = json.Unmarshal(body, &done) != nil || done.JobID == ""
		post(t, c, "/cluster/complete", body, malformed)
		checkJobPlacement(t, c, ids)
	})
}

// post sends body to path and requires a 4xx when it is malformed.
func post(t *testing.T, c *Coordinator, path string, body []byte, malformed bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if malformed && (rec.Code < 400 || rec.Code >= 500) {
		t.Fatalf("POST %s with malformed body %q = %d, want 4xx", path, body, rec.Code)
	}
}

// checkJobPlacement requires every job to sit in exactly one scheduling
// place — one queue, one lease table, or none once terminal — and the
// front end's state to agree.
func checkJobPlacement(t *testing.T, c *Coordinator, ids []string) {
	t.Helper()
	type place struct {
		worker string
		leased bool
	}
	where := map[string][]place{}
	c.fe.Lock()
	for _, tk := range c.unassigned {
		where[tk.job.ID()] = append(where[tk.job.ID()], place{})
	}
	for id, w := range c.workers {
		for _, tk := range w.queue {
			where[tk.job.ID()] = append(where[tk.job.ID()], place{worker: id})
		}
		for jid := range w.leased {
			where[jid] = append(where[jid], place{worker: id, leased: true})
		}
	}
	live := map[string]bool{}
	for _, id := range ids {
		live[id] = c.tasks[id] != nil
	}
	c.fe.Unlock()
	for _, id := range ids {
		st := job(t, c, id, false)
		places := where[id]
		terminal := st.State == api.StateDone || st.State == api.StateFailed || st.State == api.StateCanceled
		ok := !live[id] && len(places) == 0 && terminal
		if live[id] && len(places) == 1 {
			ok = places[0].leased && st.State == api.StateRunning ||
				!places[0].leased && st.State == api.StateQueued
		}
		if !ok {
			t.Fatalf("job %s: live=%v state=%s places=%+v", id, live[id], st.State, places)
		}
	}
}
