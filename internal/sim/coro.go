package sim

import (
	"fmt"

	"swsm/internal/trace"
)

// Coro is a simulated thread of control.  Its body runs on a real
// goroutine, but exactly one coroutine (or the engine itself) executes
// at any instant: control moves between stacks by direct handoff — the
// current holder of control pops the next step event and resumes that
// coroutine with a single channel send — so the simulation is sequential
// and deterministic despite using goroutines for stack management.  The
// coroutine's mutable scheduling state (started/done/blocked/pending
// wakes) lives in the engine's struct-of-arrays, indexed by tid.
type Coro struct {
	eng  *Engine
	name string
	// tid is the coroutine's spawn index: the index into the engine's
	// bookkeeping arrays and the track id the tracer uses for
	// thread-state transitions.
	tid int32

	// resume carries control to this coroutine: at most one sender
	// (whichever stack pops its step event, or Run unwinding it) and one
	// receiver (the coroutine itself, parked).
	resume chan struct{}

	// body is the simulated code; run executes it from the first step.
	body func(*Coro)
}

// Spawn creates a coroutine and schedules its body to start at virtual
// time `start`.  The body receives the coroutine for Sleep/Block calls.
// Its goroutine starts when that first step is dispatched.
func (e *Engine) Spawn(name string, start Time, body func(*Coro)) *Coro {
	c := &Coro{
		eng:    e,
		name:   name,
		tid:    int32(len(e.coros)),
		resume: make(chan struct{}),
		body:   body,
	}
	e.coros = append(e.coros, c)
	e.coroStarted = append(e.coroStarted, false)
	e.coroDone = append(e.coroDone, false)
	e.coroBlocked = append(e.coroBlocked, false)
	e.coroWakes = append(e.coroWakes, 0)
	e.atStep(start, c)
	return c
}

// run is the coroutine's goroutine.  However the body ends — it returns,
// panics, or is unwound by Run — control goes back to Run.
func (c *Coro) run() {
	e := c.eng
	defer func() {
		// A panic in simulated code surfaces as an engine error
		// instead of killing the host process.
		if r := recover(); r != nil {
			e.Fail(fmt.Errorf("sim: coroutine %s panicked: %v", c.name, r))
		}
		e.coroDone[c.tid] = true
		if !e.unwinding {
			e.tracer.ThreadState(e.now, c.tid, trace.StateDone)
		}
		e.main.resume <- struct{}{}
	}()
	c.body(c)
}

// Name reports the coroutine's name (used in deadlock reports).
func (c *Coro) Name() string { return c.name }

// Engine returns the owning engine.
func (c *Coro) Engine() *Engine { return c.eng }

// Now reports current virtual time.
func (c *Coro) Now() Time { return c.eng.now }

// Sleep advances virtual time by d cycles for this coroutine.  Other
// events and coroutines run in the interim.
//
// Fast path: when every queued event lies strictly after the wake-up
// time, nothing in the simulation can observe the interim, so the clock
// advances in place — no event, no yield, no context switch.  The
// boundary case (an event at exactly the wake-up time) must take the
// slow path: that event carries a smaller seq, so it runs first under
// the (at, seq) order, and skipping the queue would reorder same-cycle
// FIFO reservations.
func (c *Coro) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: coroutine %s sleeping negative %d", c.name, d))
	}
	if d == 0 {
		return
	}
	e := c.eng
	t := e.now + d
	if e.failure == nil {
		if at, ok := e.peekTime(); !ok || at > t {
			e.now = t
			return
		}
	}
	e.atStep(t, c)
	e.pump(c)
}

// SleepUntil advances this coroutine's virtual time to absolute time t.
// If t is in the past it is a no-op.
func (c *Coro) SleepUntil(t Time) {
	if t > c.eng.now {
		c.Sleep(t - c.eng.now)
	}
}

// Block suspends the coroutine until Wake is called.  If a Wake already
// arrived since the last Block, it is consumed and Block returns
// immediately (no time passes).
func (c *Coro) Block() {
	e := c.eng
	if e.coroWakes[c.tid] > 0 {
		e.coroWakes[c.tid]--
		return
	}
	e.coroBlocked[c.tid] = true
	e.tracer.ThreadState(e.now, c.tid, trace.StateBlocked)
	e.pump(c)
	e.coroBlocked[c.tid] = false
	e.tracer.ThreadState(e.now, c.tid, trace.StateRunning)
}

// Wake resumes a blocked coroutine at the current virtual time.  If the
// coroutine is not currently blocked the wake is remembered and consumed
// by its next Block.  Wake must be called from engine/event context or
// from another (currently running) coroutine.
func (c *Coro) Wake() {
	e := c.eng
	if e.coroBlocked[c.tid] {
		e.coroBlocked[c.tid] = false
		e.atStep(e.now, c)
		return
	}
	e.coroWakes[c.tid]++
}

// Done reports whether the coroutine has finished: its body returned or
// panicked, or Run unwound it at the end of the run.
func (c *Coro) Done() bool { return c.eng.coroDone[c.tid] }
