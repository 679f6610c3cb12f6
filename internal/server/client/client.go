// Package client is the thin HTTP client for the svmd experiment
// service: the piece both CLIs use in -server mode.  It speaks the
// api package's wire types, honors the daemon's explicit backpressure
// (429 + Retry-After triggers a bounded, context-aware retry), and
// otherwise stays deliberately dumb — spec construction and formatting
// live with the caller, exactly as in local mode, and Points returns the
// same points harness.Session.Points does.
package client

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
)

// Client talks to one svmd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7099".
	BaseURL string
	// HTTP is the transport (http.DefaultClient if nil).
	HTTP *http.Client
	// Retries bounds re-submissions after 429 responses (default 10).
	// Every retry delay is jittered over [d/2, d) so the explore
	// optimizer's fan-out — dozens of clients told "Retry-After: 1" by
	// the same busy daemon in the same instant — decorrelates instead of
	// stampeding back in lockstep.
	Retries int
}

// New builds a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx response.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("svmd: %s (HTTP %d)", e.Msg, e.Status)
}

// do performs one request, decoding a JSON body into out
// (ignored when nil; copied verbatim when out is an io.Writer) and
// mapping non-2xx responses to *apiError.  Transport-level failures on
// idempotent requests (connection refused or reset while a daemon
// restarts, for example) surface as retryable errors so withBackoff can
// reconnect; non-idempotent requests fail immediately — the caller
// knows whether its request is safe to repeat.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The daemon content-negotiates /metrics (Prometheus text by
	// default); this client always speaks the JSON API.
	req.Header.Set("Accept", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// A cancelled context is the caller's decision, never retried.
		if idempotent && ctx.Err() == nil {
			return &backoffError{
				apiError:  &apiError{Status: 0, Msg: err.Error()},
				transient: true,
			}
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		ae := &apiError{Status: resp.StatusCode, Msg: msg}
		if resp.StatusCode == http.StatusTooManyRequests {
			if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
				return &backoffError{apiError: ae, after: time.Duration(sec) * time.Second}
			}
			return &backoffError{apiError: ae, after: time.Second}
		}
		return ae
	}
	switch out := out.(type) {
	case nil:
		return nil
	case io.Writer:
		_, err = io.Copy(out, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// backoffError wraps a retryable failure: a 429 with the daemon's
// requested delay, or (transient) a transport error on an idempotent
// request, retried on a capped exponential schedule.
type backoffError struct {
	*apiError
	after     time.Duration
	transient bool
}

func (e *backoffError) Unwrap() error { return e.apiError }

// StatusCode extracts the HTTP status from an error this client
// returned: 0 for transport-level failures, -1 for errors that are not
// the client's.  The cluster worker agent routes on it (404 = job
// unknown here, drop; 503 = wrong coordinator, rotate).
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return -1
}

// jittered spreads a backoff delay over [d/2, d): never longer than the
// daemon asked for, never synchronized with other clients.
func jittered(d time.Duration, r uint64) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(r%uint64(half))
}

// transientDelay is the capped exponential schedule for reconnects:
// 25ms, 50ms, 100ms, ... capped at 500ms.
func transientDelay(attempt int) time.Duration {
	if attempt > 5 { // 25ms<<5 already exceeds the cap; avoid shift overflow
		return 500 * time.Millisecond
	}
	d := 25 * time.Millisecond << uint(attempt)
	if d > 500*time.Millisecond {
		return 500 * time.Millisecond
	}
	return d
}

// withBackoff retries fn after daemon-directed (429 Retry-After) or
// transport-level (capped exponential) backoff, bounded by Retries and
// ctx.  Retries < 0 disables retrying entirely — the cluster standby's
// failure detector wants the raw error, fast.
func (c *Client) withBackoff(ctx context.Context, fn func() error) error {
	retries := c.Retries
	if retries == 0 {
		retries = 10
	}
	for attempt := 0; ; attempt++ {
		err := fn()
		be, ok := err.(*backoffError)
		if !ok || attempt >= retries {
			return err
		}
		delay := be.after
		if be.transient {
			delay = transientDelay(attempt)
		}
		delay = jittered(delay, rand.Uint64())
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// call sends one request through withBackoff and decodes the response
// into a new T; idempotent requests also retry transport failures.
func call[T any](ctx context.Context, c *Client, method, path string, body any, idempotent bool) (*T, error) {
	var out T
	err := c.withBackoff(ctx, func() error {
		return c.do(ctx, method, path, body, &out, idempotent)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Run submits a run and blocks until it reaches a terminal state,
// retrying on backpressure.
func (c *Client) Run(ctx context.Context, req api.RunRequest) (*api.RunStatus, error) {
	return call[api.RunStatus](ctx, c, http.MethodPost, "/runs?wait=1", req, false)
}

// Points resolves exactly the given specs on the daemon, at most
// parallel in flight (0 means 4), and returns their points in spec
// order — the points harness.Session.Points returns for the same specs
// — with each point's terminal status.  A job that ends failed or
// cancelled is a point carrying its error text; a request the daemon
// refuses fails the call.  Points are submitted one by one, not as one
// sweep, so a grid larger than the daemon's admission queue degrades to
// backoff-and-retry instead of rejection.  Every spec is validated
// before any is submitted.
func (c *Client) Points(ctx context.Context, specs []harness.RunSpec, parallel int) ([]harness.Point, []*api.RunStatus, error) {
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, nil, err
		}
	}
	if parallel <= 0 {
		parallel = 4
	}
	points := make([]harness.Point, len(specs))
	jobs := make([]*api.RunStatus, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, spec := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, spec harness.RunSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			st, err := c.Run(ctx, api.RunRequest{Spec: spec})
			if err != nil {
				errs[i] = fmt.Errorf("%s on %s, %d procs: %w", spec.App, spec.Protocol, spec.Procs, err)
				return
			}
			if jobs[i] = st; st.State == api.StateDone && st.Row != nil {
				points[i].Row = *st.Row
			} else {
				points[i].Failure = cmp.Or(st.Error, "job "+st.ID+" "+st.State)
			}
		}(i, spec)
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return nil, nil, err
	}
	return points, jobs, nil
}

// Submit enqueues a run without waiting.
func (c *Client) Submit(ctx context.Context, req api.RunRequest) (*api.RunStatus, error) {
	return call[api.RunStatus](ctx, c, http.MethodPost, "/runs", req, false)
}

// Get fetches a job's status; wait blocks until it is terminal.  As an
// idempotent GET it retries through transient connection errors (the
// daemon restarting under the request) with capped backoff.
func (c *Client) Get(ctx context.Context, id string, wait bool) (*api.RunStatus, error) {
	path := "/runs/" + url.PathEscape(id)
	if wait {
		path += "?wait=1"
	}
	return call[api.RunStatus](ctx, c, http.MethodGet, path, nil, true)
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (*api.RunStatus, error) {
	var st api.RunStatus
	if err := c.do(ctx, http.MethodDelete, "/runs/"+url.PathEscape(id), nil, &st, false); err != nil {
		return nil, err
	}
	return &st, nil
}

// Sweep submits a batch and blocks until every point is terminal,
// retrying whole-batch admission on backpressure.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepStatus, error) {
	return call[api.SweepStatus](ctx, c, http.MethodPost, "/sweeps?wait=1", req, false)
}

// Trace fetches a completed job's stitched Chrome/Perfetto timeline —
// the daemon's wall-clock lifecycle spans for the job with the
// simulator's deterministic event trace anchored beneath them — and
// copies it to w (it is a trace_event JSON document, typically saved to
// a file and loaded in Perfetto).
func (c *Client) Trace(ctx context.Context, id string, w io.Writer) error {
	return c.do(ctx, http.MethodGet, "/runs/"+url.PathEscape(id)+"/trace", nil, w, false)
}

// Metrics fetches the daemon's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*api.Metrics, error) {
	return call[api.Metrics](ctx, c, http.MethodGet, "/metrics", nil, true)
}

// Health fetches the daemon's liveness/drain state.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	return call[api.Health](ctx, c, http.MethodGet, "/healthz", nil, true)
}

// ---------------------------------------------------------------------------
// Cluster protocol: the worker agent's side of job leasing and
// completion, and the standby's log tail.  Lease and Complete are safe
// to replay by protocol design (a replayed lease re-dispatches only the
// grants its sender never received, a replayed complete is discarded as
// a duplicate), so they opt in to transient-error retry even though
// they are POSTs.

// Lease registers the worker on first use, reports the jobs it holds
// and requests up to Max more (a Max of 0 is a pure heartbeat).
func (c *Client) Lease(ctx context.Context, req api.ClusterLeaseRequest) (*api.ClusterLeaseResponse, error) {
	return call[api.ClusterLeaseResponse](ctx, c, http.MethodPost, "/cluster/lease", req, true)
}

// Complete reports a leased job's terminal result.
func (c *Client) Complete(ctx context.Context, req api.ClusterCompleteRequest) (*api.ClusterCompleteResponse, error) {
	return call[api.ClusterCompleteResponse](ctx, c, http.MethodPost, "/cluster/complete", req, true)
}

// PollLog tails the coordinator's replicated log from seq, long-polling
// when wait is true.  No automatic retry: the standby's failure
// detector times the silence itself.
func (c *Client) PollLog(ctx context.Context, from int64, wait bool) (*api.ClusterLogResponse, error) {
	path := fmt.Sprintf("/cluster/log?from=%d", from)
	if wait {
		path += "&wait=1"
	}
	var resp api.ClusterLogResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp, false); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitExplore starts an exploration without waiting, retrying on
// backpressure (429 at the exploration concurrency limit).
func (c *Client) SubmitExplore(ctx context.Context, req explore.Request) (*api.ExploreStatus, error) {
	return call[api.ExploreStatus](ctx, c, http.MethodPost, "/explore", req, false)
}

// GetExplore fetches an exploration's status; wait blocks until it is
// terminal (idempotent, so it rides through daemon hiccups with capped
// backoff).
func (c *Client) GetExplore(ctx context.Context, id string, wait bool) (*api.ExploreStatus, error) {
	path := "/explore/" + url.PathEscape(id)
	if wait {
		path += "?wait=1"
	}
	return call[api.ExploreStatus](ctx, c, http.MethodGet, path, nil, true)
}

// Explore submits an exploration and blocks until it reaches a terminal
// state: the submit is a short non-idempotent POST, the long wait an
// idempotent GET — so a connection lost mid-search resumes watching
// instead of double-submitting.
func (c *Client) Explore(ctx context.Context, req explore.Request) (*api.ExploreStatus, error) {
	st, err := c.SubmitExplore(ctx, req)
	if err != nil {
		return nil, err
	}
	for st.State == api.StateRunning {
		if st, err = c.GetExplore(ctx, st.ID, true); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// CancelExplore requests cancellation of a running exploration.
func (c *Client) CancelExplore(ctx context.Context, id string) (*api.ExploreStatus, error) {
	return call[api.ExploreStatus](ctx, c, http.MethodDelete, "/explore/"+url.PathEscape(id), nil, false)
}
