// Package litmus generates small, seeded, deterministic multi-threaded
// load/store/lock/barrier programs over a compact shared array — the
// randomized workload suite the consistency checker runs against.  A
// program is a plain apps.Instance, so litmus runs flow through the
// harness (memoization, tracing, fault injection) and all protocols
// unmodified.
//
// Determinism guarantees: Generate is a pure function of (seed, procs,
// scale) — the same arguments always yield the same Program, on any
// host, in any process.  The structural layout (slot count, stride,
// lock count) is drawn from the seed before any per-thread choices, so
// it does not vary with the processor count.  Programs are barrier-
// uniform (every thread crosses the same barriers in the same order)
// and lock-balanced (acquire/release strictly paired, never nested), so
// they cannot deadlock by construction.
package litmus

import (
	"fmt"
	"strconv"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/core"
	"swsm/internal/mem"
)

// OpKind is one litmus operation type.
type OpKind uint8

const (
	OpLoad OpKind = iota
	OpStore
	OpAcquire
	OpRelease
	OpBarrier
	OpCompute
)

// Op is one operation of a litmus thread.
type Op struct {
	Kind OpKind
	// Slot indexes the shared array (loads and stores).
	Slot int
	// Val is the stored value; unique per program so the checker can
	// attribute every observed value to exactly one store.
	Val uint32
	// Lock names the lock (acquire/release).
	Lock int
	// Bar names the barrier (monotone per thread).
	Bar int
	// Cycles is pure compute time (OpCompute), which desynchronizes the
	// threads' relative progress.
	Cycles int64
}

// Program is one generated litmus test.  It implements apps.Instance
// directly, so a shrunk variant can be run through the harness without
// registry involvement.
type Program struct {
	Seed  uint64
	Procs int
	Slots int
	Locks int
	// StrideWords spaces consecutive slots (1 = packed in one page,
	// 16 = one cache line each, 1024 = one page each), picked from the
	// seed to vary false-sharing and invalidation granularity.
	StrideWords int
	Threads     [][]Op

	slotArr apps.U32
	doneArr apps.U32
}

// donePad spreads per-proc completion counters one cache line apart.
const donePad = 16

// splitmix64, the same generator internal/fault uses: every draw is one
// finalizer step of a counter, so program structure is a pure function
// of the seed.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// initVal is slot s's initialization value (distinct from every store).
func initVal(s int) uint32 { return 0xA0000000 | uint32(s) }

// storeVal makes the n-th store by proc globally unique.
func storeVal(proc int, n uint32) uint32 { return uint32(proc+1)<<20 | n }

// opsPerPhase is the mean phase length at each scale.
func opsPerPhase(s apps.Scale) int {
	switch s {
	case apps.Base:
		return 16
	case apps.Large:
		return 40
	}
	return 6
}

// Generate builds the litmus program for (seed, procs, scale).
func Generate(seed uint64, procs int, scale apps.Scale) *Program {
	r := rng(seed)
	// Layout first, from the seed alone (see package doc).
	p := &Program{
		Seed:        seed,
		Procs:       procs,
		Slots:       4 + r.intn(12),
		Locks:       1 + r.intn(3),
		StrideWords: []int{1, 16, 1024}[r.intn(3)],
	}
	phases := 2 + r.intn(3)
	mean := opsPerPhase(scale)
	seq := make([]uint32, procs)
	load := func(ops []Op) []Op {
		return append(ops, Op{Kind: OpLoad, Slot: r.intn(p.Slots)})
	}
	store := func(ops []Op, proc int) []Op {
		seq[proc]++
		return append(ops, Op{Kind: OpStore, Slot: r.intn(p.Slots), Val: storeVal(proc, seq[proc])})
	}
	for proc := 0; proc < procs; proc++ {
		var ops []Op
		for ph := 0; ph < phases; ph++ {
			n := mean/2 + 1 + r.intn(mean)
			for i := 0; i < n; i++ {
				switch roll := r.intn(100); {
				case roll < 35:
					ops = load(ops)
				case roll < 60:
					ops = store(ops, proc)
				case roll < 80:
					l := r.intn(p.Locks)
					ops = append(ops, Op{Kind: OpAcquire, Lock: l})
					for j, inner := 0, 1+r.intn(3); j < inner; j++ {
						if r.intn(2) == 0 {
							ops = load(ops)
						} else {
							ops = store(ops, proc)
						}
					}
					ops = append(ops, Op{Kind: OpRelease, Lock: l})
				default:
					ops = append(ops, Op{Kind: OpCompute, Cycles: int64(1 + r.intn(300))})
				}
			}
			ops = append(ops, Op{Kind: OpBarrier, Bar: ph})
		}
		p.Threads = append(p.Threads, ops)
	}
	return p
}

// --- apps.Instance ---

func (p *Program) Name() string { return Name(p.Seed) }

// MemBytes bounds the address space any layout needs: worst case is 16
// page-strided slots plus the counters page and the unused page 0.
func (p *Program) MemBytes() int64 { return 256 << 10 }

// SCBlock is the fine-grained default granularity.
func (p *Program) SCBlock() int { return 64 }

// Restructured reports false: litmus programs have no SVM restructuring.
func (p *Program) Restructured() bool { return false }

func (p *Program) slotIndex(s int) int { return s * p.StrideWords }

// Setup allocates the slot array (homes distributed round-robin by
// slot) and the per-proc completion counters.
func (p *Program) Setup(m *core.Machine) {
	p.slotArr = apps.U32{Base: m.AllocPage(int64(p.Slots*p.StrideWords) * 4)}
	p.doneArr = apps.U32{Base: m.AllocPage(int64(p.Procs*donePad) * 4)}
	for s := 0; s < p.Slots; s++ {
		p.slotArr.Init(m, p.slotIndex(s), initVal(s))
		m.Place(p.slotArr.Addr(p.slotIndex(s)), 4, s%p.Procs)
	}
	for i := 0; i < p.Procs; i++ {
		p.doneArr.Init(m, i*donePad, 0)
	}
	m.Place(p.doneArr.Addr(0), int64(p.Procs*donePad)*4, 0)
}

// Run executes this thread's operation list.
func (p *Program) Run(t *core.Thread) {
	if t.NumProcs() != p.Procs {
		panic(fmt.Sprintf("litmus: program generated for %d procs run on %d", p.Procs, t.NumProcs()))
	}
	me := t.Proc()
	for _, op := range p.Threads[me] {
		switch op.Kind {
		case OpLoad:
			p.slotArr.Get(t, p.slotIndex(op.Slot))
		case OpStore:
			p.slotArr.Set(t, p.slotIndex(op.Slot), op.Val)
		case OpAcquire:
			t.Acquire(op.Lock)
		case OpRelease:
			t.Release(op.Lock)
		case OpBarrier:
			t.Barrier(op.Bar)
		case OpCompute:
			t.Compute(op.Cycles)
		}
	}
	p.doneArr.Set(t, me*donePad, uint32(len(p.Threads[me])))
}

// Verify checks the weak end-to-end oracle: every slot's final value
// must be its init value or one of the values some thread stored there,
// and every thread must have executed its whole op list.  (The
// consistency checker is the strong oracle; this one catches lost
// writes and wild stores even on unchecked runs.)
func (p *Program) Verify(m *core.Machine) error {
	for s := 0; s < p.Slots; s++ {
		got := p.slotArr.Result(m, p.slotIndex(s))
		if got == initVal(s) {
			continue
		}
		ok := false
		for _, ops := range p.Threads {
			for _, op := range ops {
				if op.Kind == OpStore && op.Slot == s && op.Val == got {
					ok = true
				}
			}
		}
		if !ok {
			return fmt.Errorf("litmus %d: slot %d finished 0x%x, which no thread stored", p.Seed, s, got)
		}
	}
	for i := 0; i < p.Procs; i++ {
		want := uint32(len(p.Threads[i]))
		if got := p.doneArr.Result(m, i*donePad); got != want {
			return fmt.Errorf("litmus %d: proc %d completed %d of %d ops", p.Seed, i, got, want)
		}
	}
	return nil
}

var _ apps.Instance = (*Program)(nil)

// Ops counts the operations across all threads.
func (p *Program) Ops() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t)
	}
	return n
}

// String renders the program as a readable reproducer.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "litmus seed=%d procs=%d slots=%d stride=%dw locks=%d (%d ops)\n",
		p.Seed, p.Procs, p.Slots, p.StrideWords, p.Locks, p.Ops())
	for i, ops := range p.Threads {
		fmt.Fprintf(&b, "  P%d:", i)
		for _, op := range ops {
			b.WriteString(" ")
			b.WriteString(op.String())
		}
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

func (o Op) String() string {
	switch o.Kind {
	case OpLoad:
		return fmt.Sprintf("ld(s%d)", o.Slot)
	case OpStore:
		return fmt.Sprintf("st(s%d=0x%x)", o.Slot, o.Val)
	case OpAcquire:
		return fmt.Sprintf("acq(L%d)", o.Lock)
	case OpRelease:
		return fmt.Sprintf("rel(L%d)", o.Lock)
	case OpBarrier:
		return fmt.Sprintf("bar(%d)", o.Bar)
	case OpCompute:
		return fmt.Sprintf("cmp(%d)", o.Cycles)
	}
	return "?"
}

// --- registry integration ---

// Name is the registry key for a seed.
func Name(seed uint64) string { return fmt.Sprintf("litmus-%d", seed) }

// Every litmus-<seed> name resolves, in every process, to the seed's
// program, generated lazily at Setup when the processor count is known.
// Only the canonical spelling resolves, so an instance's Name is always
// the name it was built from.
func init() {
	apps.RegisterFamily("litmus-", func(suffix string) (apps.Info, bool) {
		seed, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil || strconv.FormatUint(seed, 10) != suffix {
			return apps.Info{}, false
		}
		return apps.Info{
			Name:     Name(seed),
			BaseSize: "seeded random load/store/lock/barrier program",
			Factory: func(s apps.Scale) apps.Instance {
				return &lazyProgram{seed: seed, scale: s}
			},
		}, true
	})
}

// lazyProgram defers generation to Setup so the same registered app
// adapts to whatever machine size the spec asks for.
type lazyProgram struct {
	seed  uint64
	scale apps.Scale
	*Program
}

func (l *lazyProgram) Name() string { return Name(l.seed) }

func (l *lazyProgram) MemBytes() int64 { return 256 << 10 }

func (l *lazyProgram) SCBlock() int { return 64 }

func (l *lazyProgram) Restructured() bool { return false }

func (l *lazyProgram) Setup(m *core.Machine) {
	l.Program = Generate(l.seed, m.Cfg.Procs, l.scale)
	l.Program.Setup(m)
}

var _ apps.Instance = (*lazyProgram)(nil)

// Pages reports how many pages the slot array spans (diagnostics).
func (p *Program) Pages() int {
	return int((int64(p.Slots*p.StrideWords)*4 + mem.PageSize - 1) / mem.PageSize)
}
