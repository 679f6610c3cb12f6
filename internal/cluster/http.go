package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"swsm/internal/server"
	"swsm/internal/server/api"
)

// Handler returns the coordinator's HTTP API: the daemon's job front end
// (/runs, /sweeps, /explore, /events, /metrics, /healthz, traces and
// pprof) — svmbench -server and the thin client cannot tell a
// coordinator from a single daemon — plus the cluster protocol
// underneath:
//
//	POST /cluster/lease     registration + heartbeat + held leases + job handout
//	POST /cluster/complete  terminal result (idempotent)
//	GET  /cluster/log       replicated log tail (?from=N&wait=1 long-polls)
//	GET  /cluster/status    membership/scheduling snapshot
//
// A standby serves reads and the cluster protocol but rejects
// submissions with 503 until promoted.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.fe.Handler())
	mux.HandleFunc("POST /cluster/lease", c.handleLease)
	mux.HandleFunc("POST /cluster/complete", c.handleComplete)
	mux.HandleFunc("GET /cluster/log", c.handleLog)
	mux.HandleFunc("GET /cluster/status", c.handleStatus)
	return mux
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterLeaseRequest
	if err := decodeBody(r, &req); err != nil || req.WorkerID == "" {
		server.WriteError(w, http.StatusBadRequest, "bad lease body")
		return
	}
	server.WriteJSON(w, http.StatusOK, c.lease(req))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterCompleteRequest
	if err := decodeBody(r, &req); err != nil || req.JobID == "" {
		server.WriteError(w, http.StatusBadRequest, "bad complete body")
		return
	}
	resp, err := c.complete(req)
	switch {
	case errors.Is(err, ErrNotPrimary):
		server.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, errUnknownJob):
		server.WriteError(w, http.StatusNotFound, "no job %q", req.JobID)
	case err != nil: // errBadCompletion
		server.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		server.WriteJSON(w, http.StatusOK, resp)
	}
}

// decodeBody decodes a request body that must be exactly one JSON
// value: a valid prefix followed by anything else is malformed too.
func decodeBody(r *http.Request, v any) error {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func (c *Coordinator) handleLog(w http.ResponseWriter, r *http.Request) {
	from := int64(1)
	if s := r.URL.Query().Get("from"); s != "" {
		var err error
		if from, err = strconv.ParseInt(s, 10, 64); err != nil {
			server.WriteError(w, http.StatusBadRequest, "bad from %q", s)
			return
		}
	}
	server.WriteJSON(w, http.StatusOK, c.waitLog(r.Context(), from, server.WantWait(r)))
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Status())
}
