package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"swsm/internal/harness"
	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /runs            submit a run ({"spec":{...},"speedup":true}); ?wait=1 blocks until terminal
//	GET    /runs            list job statuses (newest first)
//	GET    /runs/{id}       one job's status/result; ?wait=1 blocks until terminal
//	DELETE /runs/{id}       cancel a job
//	POST   /sweeps          submit a batch ({"points":[...]}); ?wait=1 blocks until all terminal
//	GET    /sweeps/{id}     sweep progress with per-point statuses
//	POST   /explore         start an auto-tuning search (explore.Request); ?wait=1 blocks until it ends
//	GET    /explore         list explorations (submission order)
//	GET    /explore/{id}    one exploration's status; ?wait=1 blocks until it ends
//	DELETE /explore/{id}    cancel an exploration
//	GET    /explore/{id}/frontier  its Pareto frontier as CSV
//	GET    /events          SSE stream of job/sweep lifecycle events
//	GET    /runs/{id}/trace stitched Chrome/Perfetto timeline for a done job
//	GET    /metrics         Prometheus text exposition (default); the JSON
//	                        snapshot with Accept: application/json or ?format=json
//	GET    /healthz         liveness + drain state + key version
//	GET    /debug/pprof/*   Go profiling endpoints (CPU, heap, goroutines, ...)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmitRun)
	mux.HandleFunc("GET /runs", s.handleListRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /runs/{id}/trace", s.handleRunTrace)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancelRun)
	mux.HandleFunc("POST /sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /sweeps/{id}", s.handleGetSweep)
	mux.HandleFunc("POST /explore", s.handleSubmitExplore)
	mux.HandleFunc("GET /explore", s.handleListExplore)
	mux.HandleFunc("GET /explore/{id}", s.handleGetExplore)
	mux.HandleFunc("GET /explore/{id}/frontier", s.handleExploreFrontier)
	mux.HandleFunc("DELETE /explore/{id}", s.handleCancelExplore)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WriteError writes the uniform JSON error body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as an indented JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// submitError maps scheduler admission errors to status codes: 503 while
// draining, 429 + Retry-After on a full queue (explicit backpressure —
// the client should back off, not the daemon buffer without bound).
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnavailable):
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "%v", err)
	default:
		WriteError(w, http.StatusBadRequest, "%v", err)
	}
}

// DecodeBody decodes a request body that must be exactly one JSON
// value: a valid prefix followed by anything but whitespace is
// malformed too.
func DecodeBody(r *http.Request, v any) error {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// WantWait reports whether a request asks to block (?wait=1).
func WantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "", "0", "false":
		return false
	}
	return true
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := DecodeBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := ValidateRequest(req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	wait := WantWait(r)
	j, _, err := s.submit(req, !wait)
	if err != nil {
		submitError(w, err)
		return
	}
	if wait {
		if err := s.waitJob(r.Context(), j); err != nil {
			// The client is gone; nothing useful to write.
			return
		}
	}
	s.mu.Lock()
	st, code := statusLocked(j), http.StatusAccepted
	if j.terminal() {
		code = http.StatusOK
	}
	s.mu.Unlock()
	WriteJSON(w, code, st)
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]api.RunStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *statusLocked(j))
	}
	s.mu.Unlock()
	// Job IDs are "j<seq>"; sort newest first by numeric part.
	sort.Slice(out, func(i, k int) bool {
		return len(out[i].ID) > len(out[k].ID) ||
			(len(out[i].ID) == len(out[k].ID) && out[i].ID > out[k].ID)
	})
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) jobByID(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return j, ok
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if WantWait(r) {
		if err := s.waitJob(r.Context(), j); err != nil {
			return
		}
	}
	s.mu.Lock()
	st := statusLocked(j)
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	live := s.cancelLocked(j)
	st := statusLocked(j)
	s.mu.Unlock()
	if !live && st.State != api.StateCanceled {
		WriteError(w, http.StatusConflict, "job %s already %s", st.ID, st.State)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := DecodeBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Points) == 0 {
		WriteError(w, http.StatusBadRequest, "sweep has no points")
		return
	}
	for i, p := range req.Points {
		if err := ValidateRequest(p); err != nil {
			WriteError(w, http.StatusBadRequest, "invalid point %d: %v", i, err)
			return
		}
	}
	// Admit every point (deduplicated against in-flight work) before
	// registering the sweep; a full queue rejects the whole batch so the
	// client never receives a half-admitted sweep.  Rollback cancels only
	// jobs this sweep created — never jobs coalesced from other clients.
	jobs := make([]*Job, 0, len(req.Points))
	var ours []*Job
	for i, p := range req.Points {
		j, created, err := s.submit(p, true)
		if err != nil {
			s.mu.Lock()
			for _, mine := range ours {
				if mine.state == api.StateQueued {
					s.cancelLocked(mine)
				}
			}
			s.mu.Unlock()
			if errors.Is(err, ErrQueueFull) {
				err = fmt.Errorf("%w admitting point %d of %d", err, i, len(req.Points))
			}
			submitError(w, err)
			return
		}
		jobs = append(jobs, j)
		if created {
			ours = append(ours, j)
		}
	}
	s.mu.Lock()
	sw := s.addSweepLocked(fmt.Sprintf("s%d", s.nextSweep+1), jobs)
	s.executor.Sweep(sw.id, jobs)
	s.mu.Unlock()

	if WantWait(r) {
		for _, j := range jobs {
			if err := s.waitJob(r.Context(), j); err != nil {
				return
			}
		}
	}
	s.mu.Lock()
	st := sweepStatusLocked(sw, true)
	s.mu.Unlock()
	code := http.StatusAccepted
	if st.Done+st.Failed == st.Total {
		code = http.StatusOK
	}
	WriteJSON(w, code, st)
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	var st *api.SweepStatus
	if ok {
		st = sweepStatusLocked(sw, true)
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := s.bus.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": %s connected\n\n", Version)
	fl.Flush()

	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case e, open := <-ch:
			if !open { // bus closed: drain finished
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
			fl.Flush()
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics content-negotiates between the Prometheus text
// exposition (the scraper default) and the original JSON snapshot
// (Accept: application/json, or ?format=json for curl convenience).
// Both render from lock-free instruments or short critical sections —
// scraping never waits on a running simulation.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		WriteJSON(w, http.StatusOK, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// handleRunTrace serves one completed job as a stitched Chrome/Perfetto
// timeline: the job's wall-clock lifecycle spans (queue wait, store
// traffic, simulation, response) as one track, the simulator's own
// deterministic event trace as a second, with simulated cycle 0
// anchored at the wall-clock start of the sim span.
//
// Remote submissions never carry Trace (ValidateRequest rejects it), so
// the sim-level trace is produced here by re-resolving the job's spec
// with Trace set through the memoized session: the simulator is
// deterministic, so the re-run reproduces exactly the cycles the job
// observed, and repeat fetches hit the memo.  The persistent store is
// bypassed — trace capture is an in-process artifact.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	state := j.state
	spec := j.req.Spec
	spans := j.spans.Snapshot()
	s.mu.Unlock()
	if state != api.StateDone {
		WriteError(w, http.StatusConflict, "job %s is %s; traces are served for done jobs", j.id, state)
		return
	}
	spec.Trace = true
	res, err := s.runFn(r.Context(), spec)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "trace re-run: %v", err)
		return
	}
	if res.Trace == nil {
		WriteError(w, http.StatusNotImplemented, "this server's run function does not capture traces")
		return
	}
	label := fmt.Sprintf("sim %s/%s p%d", spec.App, spec.Protocol, spec.Procs)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	obs.WriteStitchedChrome(w, j.id, spans, label, res.Trace)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := api.Health{
		OK: true, Draining: s.draining,
		Version: Version, KeyVersion: harness.KeyVersion,
	}
	if load := s.executor.Load(); load.Role != "" {
		h.Role, h.Epoch, h.Workers = load.Role, load.Epoch, load.Workers
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, h)
}
