package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: scheduling order
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 10 {
		t.Fatalf("end time = %d, want 10", end)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(3, func() {
		times = append(times, e.Now())
		e.After(4, func() { times = append(times, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 3 || times[1] != 7 {
		t.Fatalf("times = %v, want [3 7]", times)
	}
}

// TestNegativeDelayPanics observes the panic through the coroutine
// wrapper, which turns it into the run's error.
func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("neg", 0, func(c *Coro) { e.After(-1, func() {}) })
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "negative delay -1") {
		t.Fatalf("Run returned %v, want the negative-delay panic", err)
	}
}

func TestCoroSleep(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Spawn("a", 0, func(c *Coro) {
		trace = append(trace, c.Now())
		c.Sleep(10)
		trace = append(trace, c.Now())
		c.Sleep(0) // no-op
		trace = append(trace, c.Now())
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if trace[0] != 0 || trace[1] != 10 || trace[2] != 10 {
		t.Fatalf("trace = %v", trace)
	}
}

func TestCoroInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", 0, func(c *Coro) {
		order = append(order, "a0")
		c.Sleep(5)
		order = append(order, "a5")
		c.Sleep(10)
		order = append(order, "a15")
	})
	e.Spawn("b", 0, func(c *Coro) {
		order = append(order, "b0")
		c.Sleep(7)
		order = append(order, "b7")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a5", "b7", "a15"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var a *Coro
	var wokeAt Time
	a = e.Spawn("blocked", 0, func(c *Coro) {
		c.Block()
		wokeAt = c.Now()
	})
	e.Spawn("waker", 0, func(c *Coro) {
		c.Sleep(42)
		a.Wake()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 42 {
		t.Fatalf("wokeAt = %d, want 42", wokeAt)
	}
}

func TestWakeBeforeBlockIsNotLost(t *testing.T) {
	e := NewEngine()
	var a *Coro
	finished := false
	a = e.Spawn("late-blocker", 0, func(c *Coro) {
		c.Sleep(100) // wake arrives during this sleep
		c.Block()    // must consume the pending wake, not deadlock
		finished = true
	})
	e.Spawn("early-waker", 0, func(c *Coro) {
		c.Sleep(10)
		a.Wake()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("coroutine never finished")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", 0, func(c *Coro) { c.Block() })
	if _, err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestFIFOContention(t *testing.T) {
	r := NewFIFO("bus")
	s, f := r.Reserve(0, 10)
	if s != 0 || f != 10 {
		t.Fatalf("first = [%d,%d], want [0,10]", s, f)
	}
	s, f = r.Reserve(4, 5) // must queue behind the first
	if s != 10 || f != 15 {
		t.Fatalf("second = [%d,%d], want [10,15]", s, f)
	}
	s, f = r.Reserve(100, 1) // idle by then
	if s != 100 || f != 101 {
		t.Fatalf("third = [%d,%d], want [100,101]", s, f)
	}
	if r.BusyCycles() != 16 {
		t.Fatalf("busy = %d, want 16", r.BusyCycles())
	}
	if r.WaitCycles() != 6 {
		t.Fatalf("wait = %d, want 6", r.WaitCycles())
	}
	if r.Uses() != 3 {
		t.Fatalf("uses = %d, want 3", r.Uses())
	}
}

func TestBandwidthRates(t *testing.T) {
	// 2 bytes per 3 cycles: 10 bytes -> ceil(30/2)=15 cycles.
	b := NewBandwidth("io", 2, 3)
	if got := b.TransferCycles(10); got != 15 {
		t.Fatalf("10B = %d cycles, want 15", got)
	}
	// Infinite bandwidth.
	inf := NewBandwidth("inf", 0, 1)
	if got := inf.TransferCycles(1 << 20); got != 0 {
		t.Fatalf("infinite pipe charged %d cycles", got)
	}
	// 4 bytes/cycle.
	fast := NewBandwidth("fast", 4, 1)
	if got := fast.TransferCycles(4096); got != 1024 {
		t.Fatalf("4KB at 4B/cy = %d, want 1024", got)
	}
	if got := fast.TransferCycles(5); got != 2 { // rounds up
		t.Fatalf("5B at 4B/cy = %d, want 2", got)
	}
}

// Property: FIFO reservations never overlap and never start before request.
func TestFIFOInvariants(t *testing.T) {
	f := func(durs []uint16, gaps []uint16) bool {
		r := NewFIFO("p")
		now := Time(0)
		prevEnd := Time(0)
		n := len(durs)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			now += Time(gaps[i] % 64)
			s, e := r.Reserve(now, Time(durs[i]%128))
			if s < now || s < prevEnd || e < s {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Bandwidth.TransferCycles is monotonic in byte count and exact
// for multiples of the rate.
func TestBandwidthMonotonic(t *testing.T) {
	f := func(num, den uint8, a, b uint16) bool {
		bw := NewBandwidth("p", int64(num%16)+1, int64(den%16)+1)
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return bw.TransferCycles(x) <= bw.TransferCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		bus := NewFIFO("bus")
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("w", Time(i), func(c *Coro) {
				for j := 0; j < 4; j++ {
					_, end := bus.Reserve(c.Now(), Time(3+i))
					c.SleepUntil(end)
					log = append(log, c.Now())
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFailAbortsRun(t *testing.T) {
	eng := NewEngine()
	boom := errors.New("boom")
	late := false
	eng.At(10, func() { eng.Fail(boom) })
	eng.At(20, func() { late = true })
	at, err := eng.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the injected failure", err)
	}
	if at != 10 {
		t.Fatalf("failure reported at %d, want 10", at)
	}
	if late {
		t.Fatal("events after Fail still ran")
	}
}

// settleGoroutines waits for goroutines that have handed control back
// but not yet finished exiting, and reports the live count once it is
// down to want (or the count when the wait times out).
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNoCoroutineBehind checks that every coroutine suspended
// when a run ends — deadlocked, failed, or cut short by a panic in a
// body or in an event on Run's own stack — is unwound before Run
// returns, so the goroutine count is back at its baseline.
func TestRunLeavesNoCoroutineBehind(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		setup func(e *Engine)
		want  string
	}{
		{"deadlock", func(e *Engine) {
			for i := 0; i < 16; i++ {
				e.Spawn("stuck", Time(i), func(c *Coro) { c.Block() })
			}
		}, "deadlock"},
		{"fail", func(e *Engine) {
			for i := 0; i < 16; i++ {
				e.Spawn("sleeper", 0, func(c *Coro) {
					for {
						c.Sleep(3)
					}
				})
			}
			e.Spawn("failer", 0, func(c *Coro) {
				c.Sleep(50)
				e.Fail(boom)
			})
		}, "boom"},
		{"body-panic", func(e *Engine) {
			e.Spawn("stuck", 0, func(c *Coro) { c.Block() })
			e.Spawn("sleeper", 0, func(c *Coro) { c.Sleep(100) })
			e.Spawn("bad", 5, func(c *Coro) { panic("bad body") })
		}, "coroutine bad panicked: bad body"},
		{"event-panic", func(e *Engine) {
			// quick's exit hands control to Run, so Run's own stack
			// dispatches the panicking event while the others are
			// suspended.
			e.Spawn("stuck", 0, func(c *Coro) { c.Block() })
			e.Spawn("sleeper", 0, func(c *Coro) { c.Sleep(100) })
			e.Spawn("quick", 1, func(c *Coro) {})
			e.At(10, func() { panic("bad event") })
		}, "sim: event dispatch panicked: bad event"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				e := NewEngine()
				tc.setup(e)
				_, err := e.Run()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Run returned %v, want an error containing %q", err, tc.want)
				}
			}
			if n := settleGoroutines(base); n > base {
				t.Fatalf("%d goroutines after 10 runs, want the baseline %d", n, base)
			}
		})
	}
}
