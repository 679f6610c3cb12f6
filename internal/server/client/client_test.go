package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"swsm/internal/server/api"
)

// flappingServer kills the first n connections at the transport level
// (hijack + close, which the client sees as EOF / connection reset —
// exactly what a restarting daemon looks like) and serves normally
// afterwards.
func flappingServer(t *testing.T, n int, handler http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("test server cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		handler(w, r)
	}))
	// Connection reuse would let a killed conn poison the next request;
	// the default client retries that internally and muddies the count.
	ts.Client().Transport.(*http.Transport).DisableKeepAlives = true
	t.Cleanup(ts.Close)
	return ts, &calls
}

// An idempotent GET must ride out transient connection errors (the
// daemon restarting under it) with capped backoff and then succeed.
func TestGetRetriesTransientErrors(t *testing.T) {
	ts, calls := flappingServer(t, 3, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/runs/j1" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		json.NewEncoder(w).Encode(api.RunStatus{ID: "j1", State: api.StateDone})
	})
	c := New(ts.URL)
	c.HTTP = ts.Client()
	st, err := c.Get(context.Background(), "j1", false)
	if err != nil {
		t.Fatalf("Get through flapping server: %v", err)
	}
	if st.ID != "j1" || st.State != api.StateDone {
		t.Fatalf("got %+v", st)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("server saw %d requests, want 3 failures + 1 success", n)
	}
}

// A non-idempotent POST must NOT be replayed on a transport error: the
// client cannot know whether the daemon admitted the job before the
// connection died.
func TestSubmitDoesNotRetryTransportErrors(t *testing.T) {
	ts, calls := flappingServer(t, 1000, nil)
	c := New(ts.URL)
	c.HTTP = ts.Client()
	if _, err := c.Submit(context.Background(), api.RunRequest{}); err == nil {
		t.Fatal("Submit through dead server succeeded")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("non-idempotent POST attempted %d times, want 1", n)
	}
}

// Retries < 0 disables retrying entirely — the cluster standby's
// failure detector wants the raw error immediately.
func TestNegativeRetriesDisablesBackoff(t *testing.T) {
	ts, calls := flappingServer(t, 1000, nil)
	c := New(ts.URL)
	c.HTTP = ts.Client()
	c.Retries = -1
	start := time.Now()
	if _, err := c.Get(context.Background(), "j1", false); err == nil {
		t.Fatal("Get against dead server succeeded")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("Retries=-1 still attempted %d times", n)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Retries=-1 spent %v backing off", d)
	}
}

// A bounded retry budget gives up once exhausted.
func TestRetriesExhaust(t *testing.T) {
	ts, calls := flappingServer(t, 1000, nil)
	c := New(ts.URL)
	c.HTTP = ts.Client()
	c.Retries = 2
	if _, err := c.Get(context.Background(), "j1", false); err == nil {
		t.Fatal("Get against dead server succeeded")
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("attempted %d times, want initial + 2 retries", n)
	}
}

// Context cancellation is the caller's decision and is never retried.
func TestContextCancelNotRetried(t *testing.T) {
	ts, calls := flappingServer(t, 1000, nil)
	c := New(ts.URL)
	c.HTTP = ts.Client()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "j1", false); err == nil {
		t.Fatal("Get with cancelled context succeeded")
	}
	if n := calls.Load(); n > 1 {
		t.Fatalf("cancelled request retried %d times", n)
	}
}

func TestTransientDelayCaps(t *testing.T) {
	if d := transientDelay(0); d != 25*time.Millisecond {
		t.Fatalf("first delay %v", d)
	}
	if d := transientDelay(1); d != 50*time.Millisecond {
		t.Fatalf("second delay %v", d)
	}
	for i := 5; i < 64; i++ {
		if d := transientDelay(i); d != 500*time.Millisecond {
			t.Fatalf("attempt %d delay %v, want cap", i, d)
		}
	}
}

func TestStatusCode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusNotFound)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	c.HTTP = ts.Client()
	c.Retries = -1
	_, err := c.Get(context.Background(), "jX", false)
	if err == nil {
		t.Fatal("expected 404 error")
	}
	if got := StatusCode(err); got != http.StatusNotFound {
		t.Fatalf("StatusCode = %d, want 404", got)
	}
	if got := StatusCode(context.Canceled); got != -1 {
		t.Fatalf("StatusCode(foreign error) = %d, want -1", got)
	}
}

func TestJitteredRange(t *testing.T) {
	d := 100 * time.Millisecond
	for r := uint64(0); r < 1000; r++ {
		got := jittered(d, r)
		if got < d/2 || got >= d {
			t.Fatalf("jittered(%v, %d) = %v, want [%v, %v)", d, r, got, d/2, d)
		}
	}
	// Degenerate delays pass through unchanged: jitter only ever
	// shortens a real backoff, never stretches a zero one.
	if got := jittered(0, 42); got != 0 {
		t.Errorf("jittered(0) = %v", got)
	}
	if got := jittered(1, 42); got != 1 {
		t.Errorf("jittered(1ns) = %v", got)
	}
}
