package sim

import (
	"testing"

	"swsm/internal/trace"
)

// TestDisabledTracerEventPathNoAllocs pins the zero-overhead-when-off
// contract: with no tracer installed, the schedule+dispatch+coroutine
// block path must not allocate.
func TestDisabledTracerEventPathNoAllocs(t *testing.T) {
	e := NewEngine()
	if e.Tracer() != nil {
		t.Fatal("fresh engine must have no tracer")
	}
	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.After(1, fn)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("event path with disabled tracer allocated %.1f/op, want 0", allocs)
	}
}

// TestCoroThreadStateTrace checks that coroutine lifecycle and
// block/resume transitions reach the tracer with the spawn-order tid.
func TestCoroThreadStateTrace(t *testing.T) {
	e := NewEngine()
	tr := trace.New(trace.Options{})
	e.SetTracer(tr)

	var c0 *Coro
	c0 = e.Spawn("a", 0, func(c *Coro) {
		c.Block() // woken at t=5
	})
	e.Spawn("b", 0, func(c *Coro) {
		c.Sleep(5)
		c0.Wake()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	type tev struct {
		at    int64
		tid   int32
		state int64
	}
	var got []tev
	for _, ev := range tr.Data().Events {
		if ev.Kind == trace.KThreadState {
			got = append(got, tev{ev.At, ev.Proc, ev.Arg})
		}
	}
	// Exact expected sequence: a starts and runs until it blocks at 0
	// (the start event runs the body synchronously), then b starts; b
	// wakes a at 5 and finishes, a resumes (running) at 5 and finishes.
	exp := []tev{
		{0, 0, trace.StateStarted},
		{0, 0, trace.StateBlocked},
		{0, 1, trace.StateStarted},
		{5, 1, trace.StateDone},
		{5, 0, trace.StateRunning},
		{5, 0, trace.StateDone},
	}
	if len(got) != len(exp) {
		t.Fatalf("thread-state events = %+v, want %+v", got, exp)
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("event %d = %+v, want %+v (full: %+v)", i, got[i], exp[i], got)
		}
	}
}
