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
// re-entrant: whichever stack currently holds control (Run, a coroutine
// inside Sleep/Block, or a finished coroutine on its way out) pops and
// dispatches events in place, handing off directly to the next coroutine
// with a single channel operation instead of bouncing every event
// through a central scheduler goroutine.  Coroutine sleeps whose wake-up
// precedes every queued event skip the queue entirely and advance the
// clock in place, so compute bursts between synchronization points cost
// a compare, not a context switch.
package sim

import (
	"fmt"

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

	// mainCh parks Run while a coroutine holds control.  A coroutine
	// that drains the queue (or observes Stop) signals it so Run can
	// finish the run-level bookkeeping.
	mainCh chan struct{}

	// stopped is set by Stop; the pump drains no further events once set.
	stopped bool
	// failure records a coroutine panic or Fail call; Run returns it.
	failure error

	// tracer is nil unless observability is enabled; every hook method on
	// a nil *trace.Tracer is a no-op, so the event loop stays allocation-
	// free when tracing is off.
	tracer *trace.Tracer
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{mainCh: make(chan struct{})}
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

// Stop terminates Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Fail aborts the run: Run drains no further events and returns err.
// The reliable transport uses it when a message exhausts its retransmit
// budget (a partitioned or dead node), which no protocol can survive.
func (e *Engine) Fail(err error) { e.fail(err) }

// fail records a fatal simulation error and stops the engine.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopped = true
}

// pump is the event loop, re-entrant on any stack.  Exactly one pump
// frame is live at a time across all goroutines; it pops and dispatches
// events until one of:
//
//   - it pops the step event for its own coroutine (self): it simply
//     returns, resuming self with zero channel operations;
//   - it pops a step event for another coroutine: it transfers control
//     directly (one channel send) and parks — or, when dying, returns so
//     the finished coroutine's goroutine can exit;
//   - the queue drains or Stop/Fail is observed: a coroutine-held pump
//     hands control back to Run via mainCh; Run's own pump just returns.
//
// self is the coroutine whose stack this pump runs on (nil for Run and
// for exiting coroutines); dying marks the pump run by a coroutine whose
// body has returned.
func (e *Engine) pump(self *Coro, dying bool) {
	for !e.stopped {
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
			if !e.coroStarted[c.tid] {
				e.coroStarted[c.tid] = true
				e.tracer.ThreadState(e.now, c.tid, trace.StateStarted)
			}
			if c == self {
				return
			}
			c.resume <- struct{}{}
			if dying {
				return
			}
			if self != nil {
				<-self.resume
				return
			}
			<-e.mainCh
		case evHandler:
			ev.obj.(EventHandler).HandleEvent(e.now, ev.arg)
		}
	}
	if self == nil && !dying {
		return // Run's own pump: Run finishes the bookkeeping
	}
	// A coroutine drained the queue or observed Stop/Fail while holding
	// control: hand it back to Run, which is parked on mainCh.
	e.mainCh <- struct{}{}
	if !dying {
		// The run is over but this coroutine is suspended mid-Sleep or
		// mid-Block.  Park; a later Run that pops its step event will
		// resume it, and otherwise the goroutine is reclaimed when the
		// process exits (same leak discipline as the deadlock case has
		// always had).
		<-self.resume
	}
}

// exitPump continues the event loop on the stack of a coroutine whose
// body has returned.  Its recover wrapper exists because the spawn
// wrapper's own recover has already fired by this point: a panic out of
// a dispatched event here would otherwise kill the process instead of
// failing the run.
func (e *Engine) exitPump() {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("sim: event dispatch panicked during coroutine exit: %v", r))
			e.mainCh <- struct{}{}
		}
	}()
	e.pump(nil, true)
}

// Run processes events until the queue drains, Stop is called, or a
// deadlock is detected (live coroutines but no scheduled events).  It
// returns the final virtual time.
func (e *Engine) Run() (Time, error) {
	e.pump(nil, false)
	if e.failure != nil {
		return e.now, e.failure
	}
	if !e.stopped {
		if desc := e.blockedCoros(); desc != "" {
			return e.now, fmt.Errorf("sim: deadlock at cycle %d; %s", e.now, desc)
		}
	}
	return e.now, nil
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
