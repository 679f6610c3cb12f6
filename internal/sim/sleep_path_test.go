package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"swsm/internal/trace"
)

// sleepHorizon bounds the forcing ticker in the identity tests: far past
// the last cycle any workload coroutine can reach (200 sleeps of at most
// 8 cycles each, plus staggered starts).
const sleepHorizon = Time(5000)

// runSleepWorkload runs `width` coroutines through a deterministic
// pseudo-random mix of sleeps (durations 1..8, so same-cycle wake-ups
// are frequent) and returns the observed (tid, now) schedule.  With
// forceSlow a self-rescheduling no-op event fires every cycle, so every
// Sleep sees a queued event at or before its wake-up time and must take
// the slow path through the queue; the ticker dispatches nothing
// observable, so the schedule must be byte-identical either way.
func runSleepWorkload(t *testing.T, width int, forceSlow, traced bool) ([][2]int64, []trace.Event) {
	t.Helper()
	e := NewEngine()
	var tr *trace.Tracer
	if traced {
		tr = trace.New(trace.Options{})
		e.SetTracer(tr)
	}
	if forceSlow {
		var tick func()
		tick = func() {
			if e.Now() < sleepHorizon {
				e.After(1, tick)
			}
		}
		e.At(0, tick)
	}
	var log [][2]int64
	for w := 0; w < width; w++ {
		w := w
		e.Spawn(fmt.Sprintf("w%d", w), Time(w), func(c *Coro) {
			r := uint64(w)*2654435761 + 12345
			for i := 0; i < 200; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				c.Sleep(Time(r>>33%8) + 1)
				log = append(log, [2]int64{int64(c.tid), c.Now()})
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	if traced {
		for _, ev := range tr.Data().Events {
			if ev.Kind == trace.KThreadState {
				evs = append(evs, ev)
			}
		}
	}
	return log, evs
}

// TestSleepFastSlowPathIdentity pins the contract behind the Sleep fast
// path: skipping the queue when every pending event lies strictly after
// the wake-up time must be invisible.  The same workload runs with the
// fast path available and with it forced off (a 1-cycle ticker keeps the
// queue non-empty), serial and 8-wide, traced and untraced; every
// configuration must produce the identical schedule, and the traced runs
// the identical thread-state event stream.
func TestSleepFastSlowPathIdentity(t *testing.T) {
	for _, width := range []int{1, 8} {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("width=%d/traced=%v", width, traced)
			t.Run(name, func(t *testing.T) {
				fastLog, fastEvs := runSleepWorkload(t, width, false, traced)
				slowLog, slowEvs := runSleepWorkload(t, width, true, traced)
				if len(fastLog) != width*200 {
					t.Fatalf("fast-path run logged %d entries, want %d", len(fastLog), width*200)
				}
				if len(fastLog) != len(slowLog) {
					t.Fatalf("schedule lengths differ: fast %d, slow %d", len(fastLog), len(slowLog))
				}
				for i := range fastLog {
					if fastLog[i] != slowLog[i] {
						t.Fatalf("schedules diverge at step %d: fast (tid %d, t %d), slow (tid %d, t %d)",
							i, fastLog[i][0], fastLog[i][1], slowLog[i][0], slowLog[i][1])
					}
				}
				if !traced {
					return
				}
				if len(fastEvs) != len(slowEvs) {
					t.Fatalf("thread-state streams differ in length: fast %d, slow %d", len(fastEvs), len(slowEvs))
				}
				for i := range fastEvs {
					if fastEvs[i] != slowEvs[i] {
						t.Fatalf("thread-state streams diverge at %d: fast %+v, slow %+v", i, fastEvs[i], slowEvs[i])
					}
				}
			})
		}
	}
}

// TestSleepUntracedMatchesTraced pins that installing a tracer never
// perturbs timing: the untraced and traced schedules must be identical.
func TestSleepUntracedMatchesTraced(t *testing.T) {
	plain, _ := runSleepWorkload(t, 8, false, false)
	traced, _ := runSleepWorkload(t, 8, false, true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("tracer perturbed the schedule at step %d: %v vs %v", i, plain[i], traced[i])
		}
	}
}

// TestSleepSteadyStateNoAllocs asserts the coroutine sleep paths are
// allocation-free in steady state with tracing off: the in-place
// fast path (lone sleeper) and the slow path through the queue with a
// direct coroutine handoff (two sleepers ping-ponging every cycle).
// Allocations are counted from inside the coroutine, after a warm-up
// that pays one-time costs (bucket arrays, stack growth).
func TestSleepSteadyStateNoAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Min over several windows: the runtime occasionally allocates once
	// or twice on its own behalf (sudog pool refills on channel parks,
	// stack growth) — steady state is the window where none of that
	// happens, and per-sleep allocation would show up in every window.
	measure := func(c *Coro, d Time) uint64 {
		for i := 0; i < 100; i++ {
			c.Sleep(d)
		}
		best := ^uint64(0)
		for w := 0; w < 4; w++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 5000; i++ {
				c.Sleep(d)
			}
			runtime.ReadMemStats(&m1)
			if n := m1.Mallocs - m0.Mallocs; n < best {
				best = n
			}
		}
		return best
	}

	t.Run("fast-path", func(t *testing.T) {
		e := NewEngine()
		var got uint64
		e.Spawn("lone", 0, func(c *Coro) { got = measure(c, 3) })
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("fast-path sleep loop allocated %d times in 5000 sleeps, want 0", got)
		}
	})

	t.Run("slow-path-handoff", func(t *testing.T) {
		e := NewEngine()
		var got uint64
		e.Spawn("a", 0, func(c *Coro) { got = measure(c, 1) })
		e.Spawn("b", 0, func(c *Coro) {
			// Outlast every measurement window of a, so a's sleeps stay
			// on the slow path (queue never empty) throughout.
			for i := 0; i < 21000; i++ {
				c.Sleep(1)
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("slow-path sleep loop allocated %d times in 5000 sleeps, want 0", got)
		}
	})
}
