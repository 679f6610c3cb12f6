package litmus

import (
	"reflect"
	"strings"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/core"
	"swsm/internal/proto/ideal"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 4, apps.Tiny)
	b := Generate(42, 4, apps.Tiny)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different programs")
	}
	c := Generate(43, 4, apps.Tiny)
	if reflect.DeepEqual(a.Threads, c.Threads) {
		t.Fatal("different seeds generated identical programs")
	}
}

func TestLayoutIndependentOfProcs(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := Generate(seed, 2, apps.Tiny)
		b := Generate(seed, 8, apps.Tiny)
		if a.Slots != b.Slots || a.StrideWords != b.StrideWords || a.Locks != b.Locks {
			t.Fatalf("seed %d: layout varies with procs: %d/%d/%d vs %d/%d/%d",
				seed, a.Slots, a.StrideWords, a.Locks, b.Slots, b.StrideWords, b.Locks)
		}
	}
}

// TestProgramStructure pins the properties that make generated programs
// deadlock-free and checkable: barrier uniformity, strict lock pairing
// without nesting, globally unique store values, in-range slots.
func TestProgramStructure(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		p := Generate(seed, 4, apps.Base)
		var barRef []int
		vals := map[uint32]bool{}
		for ti, ops := range p.Threads {
			var bars []int
			held := -1
			for _, op := range ops {
				switch op.Kind {
				case OpBarrier:
					if held != -1 {
						t.Fatalf("seed %d P%d: barrier inside critical section", seed, ti)
					}
					bars = append(bars, op.Bar)
				case OpAcquire:
					if held != -1 {
						t.Fatalf("seed %d P%d: nested acquire", seed, ti)
					}
					held = op.Lock
				case OpRelease:
					if held != op.Lock {
						t.Fatalf("seed %d P%d: release of %d while holding %d", seed, ti, op.Lock, held)
					}
					held = -1
				case OpStore:
					if vals[op.Val] {
						t.Fatalf("seed %d: store value 0x%x not unique", seed, op.Val)
					}
					vals[op.Val] = true
					fallthrough
				case OpLoad:
					if op.Slot < 0 || op.Slot >= p.Slots {
						t.Fatalf("seed %d: slot %d out of range", seed, op.Slot)
					}
				}
			}
			if held != -1 {
				t.Fatalf("seed %d P%d: lock %d never released", seed, ti, held)
			}
			if ti == 0 {
				barRef = bars
			} else if !reflect.DeepEqual(bars, barRef) {
				t.Fatalf("seed %d: thread %d barrier sequence %v != %v", seed, ti, bars, barRef)
			}
		}
	}
}

// TestProgramRunsOnIdeal executes a batch of seeds on the ideal machine
// and checks the weak oracle holds.
func TestProgramRunsOnIdeal(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := Generate(seed, 4, apps.Tiny)
		cfg := core.DefaultConfig()
		cfg.Procs = 4
		cfg.SharedMem = true
		cfg.MemLimit = p.MemBytes()
		m := core.NewMachine(cfg, ideal.New())
		p.Setup(m)
		if _, err := m.Run(p.Run); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Verify(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestShrinkToEmpty(t *testing.T) {
	p := Generate(7, 4, apps.Base)
	min := Shrink(p, func(*Program) bool { return true })
	if n := min.Ops(); n != 0 {
		t.Fatalf("always-failing predicate should shrink to nothing, kept %d ops:\n%s", n, min)
	}
}

// TestShrinkPreservesPredicate shrinks against a structural predicate
// and verifies the result is 1-minimal for it: the predicate holds, and
// structure invariants survived shrinking.
func TestShrinkPreservesPredicate(t *testing.T) {
	p := Generate(9, 4, apps.Base)
	// Find some store to anchor on.
	var anchor uint32
	for _, op := range p.Threads[2] {
		if op.Kind == OpStore {
			anchor = op.Val
			break
		}
	}
	if anchor == 0 {
		t.Skip("seed 9 thread 2 has no store")
	}
	keep := func(q *Program) bool {
		for _, ops := range q.Threads {
			for _, op := range ops {
				if op.Kind == OpStore && op.Val == anchor {
					return true
				}
			}
		}
		return false
	}
	min := Shrink(p, keep)
	if !keep(min) {
		t.Fatal("shrink lost the predicate")
	}
	if min.Ops() != 1 {
		t.Fatalf("want exactly the anchored store left, got %d ops:\n%s", min.Ops(), min)
	}
	if !strings.Contains(min.String(), "st(") {
		t.Fatalf("reproducer should print the store:\n%s", min)
	}
}

// TestNameResolvesWithoutRegistration checks that any seed's name
// resolves with nothing registered for it, that only the canonical
// spelling does, and that family members stay out of Names.
func TestNameResolvesWithoutRegistration(t *testing.T) {
	n := Name(123456)
	inst, err := apps.New(n, apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Name() != n {
		t.Fatalf("instance name %q, registry name %q", inst.Name(), n)
	}
	for _, bad := range []string{"litmus-", "litmus-0123456", "litmus-+1", "litmus-x", "litmus-18446744073709551616"} {
		if _, err := apps.Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) succeeded, want unknown application", bad)
		}
	}
	for _, name := range apps.Names() {
		if strings.HasPrefix(name, "litmus-") {
			t.Fatalf("Names lists family member %q", name)
		}
	}
}
