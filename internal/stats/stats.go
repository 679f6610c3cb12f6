// Package stats accumulates per-processor execution-time breakdowns and
// event counters, mirroring the categories the paper reports in its
// Figure 4 breakdowns and Table 4 protocol-activity analysis.
package stats

import (
	"fmt"
	"strings"
)

// Category labels one component of a processor's execution time.
type Category int

// The breakdown categories, in presentation order.  They partition a
// processor's wall-clock execution: every simulated cycle of a processor
// is attributed to exactly one category.
const (
	Busy        Category = iota // application instructions (1 IPC)
	CacheStall                  // local memory-hierarchy stalls
	DataWait                    // waiting for remote data (page/block fetch)
	LockWait                    // waiting to acquire locks
	BarrierWait                 // waiting at barriers
	Protocol                    // protocol actions on this processor: diffs, twins, mprotect, handler bodies
	Handler                     // asynchronous message-handling dispatch cost
	NumCategories
)

var categoryNames = [NumCategories]string{
	"busy", "cache", "data", "lock", "barrier", "protocol", "handler",
}

// String returns the short category label.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Counter labels an event counter.
type Counter int

// Event counters used for Table 4-style analysis and the validation of
// communication behaviour.
const (
	MsgsSent Counter = iota
	MsgsHandled
	BytesSent
	PageFetches
	BlockFetches
	DiffsCreated
	DiffWordsCompared
	DiffWordsWritten
	DiffsApplied
	TwinsCreated
	WriteNotices
	Invalidations
	LockAcquires
	BarriersCrossed
	PageProtects
	Loads
	Stores
	L1Misses
	L2Misses
	TaskSteals
	// Reliable-transport counters (nonzero only under fault injection):
	// retransmissions sent, wire transmissions lost, transport acks sent
	// and duplicate frames suppressed, attributed to the node that
	// performed the action.
	Retransmits
	MsgsDropped
	AcksSent
	DupsSuppressed
	// Adaptive-placement counters (nonzero only when the heterogeneity
	// plane's placement/grain policies are on): page homes migrated and
	// pages demoted to fine-grain coherence units, attributed to the
	// barrier manager that committed the decision.
	PagesRehomed
	PagesDemoted
	NumCounters
)

var counterNames = [NumCounters]string{
	"msgsSent", "msgsHandled", "bytesSent", "pageFetches", "blockFetches",
	"diffsCreated", "diffWordsCompared", "diffWordsWritten", "diffsApplied",
	"twinsCreated", "writeNotices", "invalidations", "lockAcquires",
	"barriersCrossed", "pageProtects", "loads", "stores", "l1Misses",
	"l2Misses", "taskSteals",
	"retransmits", "msgsDropped", "acksSent", "dupsSuppressed",
	"pagesRehomed", "pagesDemoted",
}

// String returns the counter label.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("Counter(%d)", int(c))
	}
	return counterNames[c]
}

// Proc accumulates one processor's breakdown.
type Proc struct {
	Time  [NumCategories]int64
	Count [NumCounters]int64
	// DiffCycles and HandlerCycles are the Table-4 split of Protocol time:
	// diff-related computation vs. protocol handler execution.
	DiffCycles    int64
	HandlerCycles int64
}

// Total reports the sum of all time categories for this processor.
func (p *Proc) Total() int64 {
	var t int64
	for _, v := range p.Time {
		t += v
	}
	return t
}

// Machine aggregates the per-processor records for one run.
type Machine struct {
	Procs []Proc
	// ExecCycles is the parallel execution time: the wall-clock cycle at
	// which the last processor finished.
	ExecCycles int64
}

// New creates a Machine record for n processors.
func New(n int) *Machine {
	return &Machine{Procs: make([]Proc, n)}
}

// Add charges cycles to a category on processor p.  Negative charges
// and out-of-range categories are accounting bugs and panic loudly.
func (m *Machine) Add(p int, c Category, cycles int64) {
	if c < 0 || c >= NumCategories {
		panic(fmt.Sprintf("stats: charge to invalid category %d", int(c)))
	}
	if cycles < 0 {
		panic(fmt.Sprintf("stats: negative charge %d to %v", cycles, c))
	}
	m.Procs[p].Time[c] += cycles
}

// Inc bumps a counter on processor p.  Like Add, negative deltas and
// out-of-range counters panic: counters are monotonic event tallies, so
// a negative increment always means a caller bug.
func (m *Machine) Inc(p int, c Counter, n int64) {
	if c < 0 || c >= NumCounters {
		panic(fmt.Sprintf("stats: increment of invalid counter %d", int(c)))
	}
	if n < 0 {
		panic(fmt.Sprintf("stats: negative increment %d of %v", n, c))
	}
	m.Procs[p].Count[c] += n
}

// AddDiff records diff-related protocol computation in the Table-4 book.
// This book may overlap wait categories (a handler can run while the local
// thread waits), so it is kept separate from the partitioned Time array;
// callers charge Time explicitly when the work delays the thread.
func (m *Machine) AddDiff(p int, cycles int64) {
	m.Procs[p].DiffCycles += cycles
}

// AddHandlerBody records protocol-handler execution in the Table-4 book
// (see AddDiff for the accounting discipline).
func (m *Machine) AddHandlerBody(p int, cycles int64) {
	m.Procs[p].HandlerCycles += cycles
}

// TotalTime sums a category across processors.  Out-of-range categories
// panic rather than corrupting a report silently.
func (m *Machine) TotalTime(c Category) int64 {
	if c < 0 || c >= NumCategories {
		panic(fmt.Sprintf("stats: total of invalid category %d", int(c)))
	}
	var t int64
	for i := range m.Procs {
		t += m.Procs[i].Time[c]
	}
	return t
}

// TotalCount sums a counter across processors.  Out-of-range counters
// panic rather than corrupting a report silently.
func (m *Machine) TotalCount(c Counter) int64 {
	if c < 0 || c >= NumCounters {
		panic(fmt.Sprintf("stats: total of invalid counter %d", int(c)))
	}
	var t int64
	for i := range m.Procs {
		t += m.Procs[i].Count[c]
	}
	return t
}

// GrandTotal sums every category on every processor.
func (m *Machine) GrandTotal() int64 {
	var t int64
	for c := Category(0); c < NumCategories; c++ {
		t += m.TotalTime(c)
	}
	return t
}

// ProtocolPercent reports the Table-4 numbers: the percentage of total
// processor time (ExecCycles x P) spent in protocol activity, and its
// split into diff computation and handler execution.  The diff/handler
// books include handlers that overlapped waits, as the paper's
// instrumentation does.
//
// Accounting discipline — max of two books.  Thread-context protocol
// work is recorded twice, in books with different coverage: the Time
// array's Protocol category (partitioned wall-clock time: mprotect,
// fault plumbing, diffs that delayed the thread) and the DiffCycles
// overlap book (all diff computation, whether or not it delayed the
// thread).  Neither book is a superset cycle-for-cycle, but diff work
// dominates both, so summing them would double-count it.  The total
// therefore takes max(ΣTime[Protocol], ΣDiffCycles) as the thread-side
// share and adds ΣHandlerCycles on top.  Consequences callers must not
// "fix": total ≠ diff + handler in general (the max may exceed the diff
// book), and the diff and handler columns always report their own books
// unchanged, so they remain comparable across runs even when the max
// switches sides.
func (m *Machine) ProtocolPercent() (total, diff, handler float64) {
	denom := float64(m.ExecCycles) * float64(len(m.Procs))
	if denom == 0 {
		return 0, 0, 0
	}
	var d, h, other int64
	for i := range m.Procs {
		d += m.Procs[i].DiffCycles
		h += m.Procs[i].HandlerCycles
		other += m.Procs[i].Time[Protocol]
	}
	// Protocol category time counts thread-context protocol work that the
	// diff book does not already cover (mprotect, fault plumbing); the
	// diff book covers the dominant share of it, so avoid double counting
	// by taking the max of the two views of thread-side protocol work.
	threadSide := d
	if other > threadSide {
		threadSide = other
	}
	return float64(threadSide+h) / denom * 100, float64(d) / denom * 100, float64(h) / denom * 100
}

// AverageBreakdown reports each category's mean cycles per processor.
func (m *Machine) AverageBreakdown() [NumCategories]float64 {
	var out [NumCategories]float64
	n := float64(len(m.Procs))
	if n == 0 {
		return out
	}
	for c := Category(0); c < NumCategories; c++ {
		out[c] = float64(m.TotalTime(c)) / n
	}
	return out
}

// Imbalance reports max/mean of a category across processors; 1.0 means
// perfectly balanced.  Used for the paper's per-processor imbalance
// observations (e.g. Radix data-wait imbalance under contention).
func (m *Machine) Imbalance(c Category) float64 {
	if len(m.Procs) == 0 {
		return 1
	}
	var max, sum int64
	for i := range m.Procs {
		v := m.Procs[i].Time[c]
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(m.Procs))
	return float64(max) / mean
}

// BreakdownString formats the average per-processor breakdown as a
// single-line report, categories ordered as in the paper's Figure 4.
func (m *Machine) BreakdownString() string {
	avg := m.AverageBreakdown()
	parts := make([]string, 0, NumCategories)
	for c := Category(0); c < NumCategories; c++ {
		parts = append(parts, fmt.Sprintf("%s=%.0f", c, avg[c]))
	}
	return strings.Join(parts, " ")
}
