package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndTotals(t *testing.T) {
	m := New(4)
	m.Add(0, Busy, 100)
	m.Add(1, Busy, 50)
	m.Add(0, LockWait, 25)
	if got := m.TotalTime(Busy); got != 150 {
		t.Fatalf("busy total = %d", got)
	}
	if got := m.GrandTotal(); got != 175 {
		t.Fatalf("grand total = %d", got)
	}
	if got := m.Procs[0].Total(); got != 125 {
		t.Fatalf("proc 0 total = %d", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Add(0, Busy, -1)
}

func TestCounters(t *testing.T) {
	m := New(2)
	m.Inc(0, DiffsCreated, 3)
	m.Inc(1, DiffsCreated, 4)
	if got := m.TotalCount(DiffsCreated); got != 7 {
		t.Fatalf("counter total = %d", got)
	}
}

func TestProtocolPercent(t *testing.T) {
	m := New(2)
	m.ExecCycles = 1000
	m.AddDiff(0, 100)
	m.AddHandlerBody(1, 300)
	total, diff, handler := m.ProtocolPercent()
	// Denominator 2*1000; diff 100 -> 5%, handler 300 -> 15%, total 20%.
	if diff != 5 || handler != 15 || total != 20 {
		t.Fatalf("percent = %.1f/%.1f/%.1f", total, diff, handler)
	}
}

func TestProtocolPercentZeroExec(t *testing.T) {
	m := New(2)
	if a, b, c := m.ProtocolPercent(); a != 0 || b != 0 || c != 0 {
		t.Fatal("zero exec should report zeros")
	}
}

func TestImbalance(t *testing.T) {
	m := New(4)
	m.Add(0, DataWait, 400)
	for i := 1; i < 4; i++ {
		m.Add(i, DataWait, 200)
	}
	// mean 250, max 400 -> 1.6
	if got := m.Imbalance(DataWait); got != 1.6 {
		t.Fatalf("imbalance = %f", got)
	}
	if got := m.Imbalance(LockWait); got != 1 {
		t.Fatalf("empty category imbalance = %f, want 1", got)
	}
}

func TestAverageBreakdown(t *testing.T) {
	m := New(2)
	m.Add(0, Busy, 100)
	m.Add(1, Busy, 300)
	avg := m.AverageBreakdown()
	if avg[Busy] != 200 {
		t.Fatalf("avg busy = %f", avg[Busy])
	}
}

func TestCategoryNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		name := c.String()
		if name == "" || seen[name] {
			t.Fatalf("bad/duplicate category name %q", name)
		}
		seen[name] = true
	}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" {
			t.Fatalf("empty counter name for %d", c)
		}
	}
}

// Property: Add is associative with totals (sum of parts == total).
func TestAddAccumulates(t *testing.T) {
	f := func(parts []uint16) bool {
		m := New(1)
		var want int64
		for _, p := range parts {
			m.Add(0, Protocol, int64(p))
			want += int64(p)
		}
		return m.TotalTime(Protocol) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownString(t *testing.T) {
	m := New(1)
	m.Add(0, Busy, 42)
	if s := m.BreakdownString(); !strings.Contains(s, "busy=42") {
		t.Fatalf("breakdown string %q", s)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestNegativeIncrementPanics(t *testing.T) {
	mustPanic(t, "Inc negative", func() { New(1).Inc(0, MsgsSent, -1) })
}

func TestOutOfRangeIndexPanics(t *testing.T) {
	m := New(1)
	mustPanic(t, "Add high", func() { m.Add(0, NumCategories, 1) })
	mustPanic(t, "Add low", func() { m.Add(0, Category(-1), 1) })
	mustPanic(t, "Inc high", func() { m.Inc(0, NumCounters, 1) })
	mustPanic(t, "Inc low", func() { m.Inc(0, Counter(-1), 1) })
	mustPanic(t, "TotalTime high", func() { m.TotalTime(NumCategories) })
	mustPanic(t, "TotalCount high", func() { m.TotalCount(NumCounters) })
}

// TestProtocolPercentMaxOfBooks pins the max-of-two-books discipline on
// a synthetic machine where the partitioned Protocol category exceeds
// the diff overlap book: the total must use the larger book while the
// diff and handler columns keep reporting their own books unchanged —
// so total != diff + handler here by design.
func TestProtocolPercentMaxOfBooks(t *testing.T) {
	m := New(2)
	m.ExecCycles = 1000      // denominator: 2000 processor-cycles
	m.AddDiff(0, 100)        // diff book: 100
	m.Add(0, Protocol, 240)  // partitioned book: 240 > diff book
	m.AddHandlerBody(1, 300) // handler book: 300
	total, diff, handler := m.ProtocolPercent()
	// threadSide = max(240, 100) = 240; total = (240+300)/2000 = 27%.
	if total != 27 || diff != 5 || handler != 15 {
		t.Fatalf("percent = %.1f/%.1f/%.1f, want 27/5/15", total, diff, handler)
	}
	if total == diff+handler {
		t.Fatal("synthetic machine must exercise the total != diff+handler case")
	}
}
