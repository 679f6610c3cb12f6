// Package sim implements a deterministic discrete-event simulation engine
// with cooperatively scheduled coroutines, modeled on execution-driven
// architecture simulators such as augmint: application code runs for real,
// and the engine advances a virtual clock measured in processor cycles.
//
// The engine is strictly single-threaded from the simulation's point of
// view.  Coroutines execute one at a time, handing control back to the
// engine whenever they need virtual time to pass, so every run with the
// same inputs produces bit-identical timing.
//
// The event loop is built for raw speed.  Events are value-typed records
// in a calendar/bucket queue (see queue.go) instead of heap-allocated
// closures; the dominant kinds — coroutine steps, network packets and
// transport timers — are closure-free.  The loop itself ("the pump") is
// re-entrant: whichever park point holds control (Run's stack or a
// coroutine inside Sleep/Block) pops and dispatches events in place,
// handing off directly to the next coroutine with a single channel
// operation instead of bouncing every event through a central scheduler
// goroutine.  Coroutine sleeps whose wake-up precedes every queued event
// skip the queue entirely and advance the clock in place, so compute
// bursts between synchronization points cost a compare, not a context
// switch.  No coroutine's goroutine outlives Run.
package sim

import (
	"fmt"
	"runtime"

	"swsm/internal/trace"
)

// Time is a point in virtual time, measured in processor cycles.
type Time = int64

// EventHandler receives closure-free scheduled callbacks.  Hot
// subsystems (the network's packet pipeline) implement it so that
// scheduling an event stores a receiver pointer and one integer argument
// instead of allocating a closure per event.
type EventHandler interface {
	HandleEvent(now Time, arg int64)
}

// Engine is the discrete-event core.  It owns the virtual clock and the
// event queue, and it is the only entity that resumes coroutines.
type Engine struct {
	now Time
	seq uint64

	// reg is a single-event register in front of the calendar: when the
	// queue is otherwise empty the next event parks here, so the
	// ubiquitous pop-one-schedule-one chain (a lone coroutine sleeping,
	// a self-rescheduling sampler) never touches a bucket.  regSet
	// implies reg is the only queued event: a second schedule flushes
	// reg into the calendar first, so ordering is preserved.
	reg    event
	regSet bool

	q calQueue

	// Coroutine bookkeeping lives here as struct-of-arrays indexed by
	// tid rather than as fields on Coro: the pump and Sleep/Block/Wake
	// touch these flags constantly, and flat slices keep them on a few
	// shared cache lines instead of scattered across per-coroutine
	// allocations.
	coros       []*Coro
	coroStarted []bool
	coroDone    []bool
	coroBlocked []bool
	coroWakes   []int32

	// main is Run's park point: Run waits on main.resume while a
	// coroutine holds control, exactly as a suspended coroutine waits on
	// its own.
	main Coro
	// unwinding is set while Run resumes suspended coroutines at the end
	// of a run; a coroutine resumed then leaves its park point with
	// runtime.Goexit instead of returning into Sleep/Block.
	unwinding bool

	// failure records the first Fail call or panic; once it is set the
	// pump drains no further events, and Run returns it.
	failure error

	// tracer is nil unless observability is enabled; every hook method on
	// a nil *trace.Tracer is a no-op, so the event loop stays allocation-
	// free when tracing is off.
	tracer *trace.Tracer
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.main.resume = make(chan struct{})
	e.q.init()
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs (or, with nil, removes) the engine's tracer.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Tracer returns the installed tracer; nil means tracing is disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// schedule files an event record at absolute time at.  The body is a
// thin inlinable shell: the common chain case (queue otherwise empty)
// stores field-wise into the register — no struct copy, no bucket — and
// everything else defers to scheduleSlow.
func (e *Engine) schedule(at Time, kind uint8, obj any, arg int64) {
	e.seq++
	if !e.regSet && e.q.n == 0 {
		e.reg.at = at
		e.reg.seq = e.seq
		e.reg.arg = arg
		e.reg.obj = obj
		e.reg.kind = kind
		e.regSet = true
		return
	}
	e.scheduleSlow(at, kind, obj, arg)
}

// scheduleSlow files into the calendar, first flushing the register so
// the queue's (at, seq) order covers every pending event.
func (e *Engine) scheduleSlow(at Time, kind uint8, obj any, arg int64) {
	if e.regSet {
		e.regSet = false
		e.q.insert(e.reg, e.now)
	}
	e.q.insert(event{at: at, seq: e.seq, arg: arg, obj: obj, kind: kind}, e.now)
}

// peekTime reports the earliest queued timestamp, if any.
func (e *Engine) peekTime() (Time, bool) {
	if e.regSet {
		return e.reg.at, true
	}
	return e.q.peekAt()
}

// At schedules fn to run at absolute virtual time t.  Scheduling in the
// past is an error in the simulation logic and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, evFunc, fn, 0)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.schedule(e.now+d, evFunc, fn, 0)
}

// AtHandler schedules h.HandleEvent(t, arg) at absolute virtual time t
// without allocating a closure.  Scheduling in the past panics.
func (e *Engine) AtHandler(t Time, h EventHandler, arg int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, evHandler, h, arg)
}

// atStep schedules coroutine c to resume at absolute time t.
func (e *Engine) atStep(t Time, c *Coro) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, evStep, c, 0)
}

// Fail aborts the run: Run drains no further events and returns err,
// which must be non-nil; a later Fail keeps the first error.  The
// reliable transport uses it when a message exhausts its retransmit
// budget (a partitioned or dead node), which no protocol can survive.
func (e *Engine) Fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// pump is the event loop.  Exactly one pump frame holds control at a
// time across all goroutines; self is its park point (&e.main on Run's
// stack).  It pops and dispatches events until one of:
//
//   - it pops its own step event: it returns with no switch;
//   - it pops another coroutine's step event: it hands control over
//     directly (one channel send, or the goroutine's start on its first
//     step) and parks.  Once resumed, a coroutine's pump returns into its
//     Sleep/Block, and Run's pump keeps dispatching;
//   - the queue drains or Fail is observed: a coroutine's pump hands
//     control to Run and parks until Run unwinds it.
func (e *Engine) pump(self *Coro) {
	for e.failure == nil {
		var ev *event
		if e.regSet {
			e.regSet = false
			ev = &e.reg
		} else {
			var ok bool
			ev, ok = e.q.popNext()
			if !ok {
				break
			}
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		switch ev.kind {
		case evFunc:
			ev.obj.(func())()
		case evStep:
			c := ev.obj.(*Coro)
			if c == self {
				return
			}
			if e.coroStarted[c.tid] {
				c.resume <- struct{}{}
			} else {
				e.coroStarted[c.tid] = true
				e.tracer.ThreadState(e.now, c.tid, trace.StateStarted)
				go c.run()
			}
			e.park(self)
			if self != &e.main {
				return
			}
		case evHandler:
			ev.obj.(EventHandler).HandleEvent(e.now, ev.arg)
		}
	}
	if self != &e.main {
		e.main.resume <- struct{}{}
		e.park(self)
	}
}

// park waits until control returns to self.  A coroutine resumed while
// Run unwinds leaves through runtime.Goexit, which runs its wrapper's
// deferred bookkeeping and ends the goroutine.
func (e *Engine) park(self *Coro) {
	<-self.resume
	if e.unwinding {
		runtime.Goexit()
	}
}

// Run processes events until the queue drains, Fail is called, or a
// deadlock is detected (live coroutines but no scheduled events).  It
// returns the final virtual time.  A panic raised by an event that Run's
// own stack dispatches becomes the run's error.  Before returning, Run
// unwinds every coroutine still suspended, so none outlives the run.
func (e *Engine) Run() (Time, error) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.Fail(fmt.Errorf("sim: event dispatch panicked: %v", r))
			}
		}()
		e.pump(&e.main)
	}()
	err := e.failure
	if err == nil {
		if desc := e.blockedCoros(); desc != "" {
			err = fmt.Errorf("sim: deadlock at cycle %d; %s", e.now, desc)
		}
	}
	e.unwinding = true
	for _, c := range e.coros {
		if e.coroStarted[c.tid] && !e.coroDone[c.tid] {
			c.resume <- struct{}{}
			<-e.main.resume
		}
	}
	e.unwinding = false
	return e.now, err
}

// blockedCoros describes every unfinished coroutine for the deadlock
// report.  It separates coroutines genuinely parked in Block — waiting
// for a Wake that never came, an application-level deadlock — from
// coroutines that are runnable but starved: not blocked, yet never
// stepped again.  The latter indicates a scheduler bug (a runnable
// coroutine always has a step event queued), so the report says so.
// Tids are included so entries line up with trace track ids.
func (e *Engine) blockedCoros() string {
	var blocked, starved []string
	for _, c := range e.coros {
		if e.coroDone[c.tid] || !e.coroStarted[c.tid] {
			continue
		}
		desc := fmt.Sprintf("%s(tid %d)", c.name, c.tid)
		if e.coroBlocked[c.tid] {
			blocked = append(blocked, desc)
		} else {
			starved = append(starved, desc)
		}
	}
	switch {
	case len(blocked) > 0 && len(starved) > 0:
		return fmt.Sprintf("blocked coroutines: %v; runnable-but-starved coroutines (scheduler bug): %v", blocked, starved)
	case len(starved) > 0:
		return fmt.Sprintf("runnable-but-starved coroutines (scheduler bug): %v", starved)
	case len(blocked) > 0:
		return fmt.Sprintf("blocked coroutines: %v", blocked)
	}
	return ""
}

// PendingEvents reports how many events are queued (for tests).
func (e *Engine) PendingEvents() int {
	n := e.q.len()
	if e.regSet {
		n++
	}
	return n
}
