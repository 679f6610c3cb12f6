package hlrc_test

import (
	"testing"

	"swsm/internal/comm"
	"swsm/internal/core"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/proto/hlrc"
	"swsm/internal/proto/lrc"
	"swsm/internal/stats"
)

func machine(procs int) (*core.Machine, *hlrc.Protocol) {
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	cfg.MemLimit = 4 << 20
	p := hlrc.New(hlrc.Config{Costs: proto.OriginalCosts()})
	return core.NewMachine(cfg, p), p
}

// eachPolicy runs body as one subtest per diff-propagation policy of
// the lazyrc substrate: home-based (hlrc) and distributed (lrc).  The
// body's input builds a machine on that protocol.
func eachPolicy(t *testing.T, body func(t *testing.T, machine func(procs int) *core.Machine)) {
	for _, pc := range []struct {
		name string
		prot func() proto.Protocol
	}{
		{"hlrc", func() proto.Protocol { return hlrc.New(hlrc.Config{Costs: proto.OriginalCosts()}) }},
		{"lrc", func() proto.Protocol { return lrc.New(lrc.Config{Costs: proto.OriginalCosts()}) }},
	} {
		t.Run(pc.name, func(t *testing.T) {
			body(t, func(procs int) *core.Machine {
				cfg := core.DefaultConfig()
				cfg.Procs = procs
				cfg.MemLimit = 4 << 20
				return core.NewMachine(cfg, pc.prot())
			})
		})
	}
}

func TestBarrierPropagatesWrites(t *testing.T) {
	eachPolicy(t, func(t *testing.T, machine func(procs int) *core.Machine) {
		m := machine(4)
		a := m.AllocPage(mem.PageSize)
		_, err := m.Run(func(th *core.Thread) {
			if th.Proc() == 2 {
				th.Store32(a+40, 777)
			}
			th.Barrier(0)
			if got := th.Load32(a + 40); got != 777 {
				t.Errorf("proc %d read %d, want 777", th.Proc(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.ReadResultWord(a + 40); got != 777 {
			t.Fatalf("coherent copy = %d, want 777", got)
		}
	})
}

func TestMultipleWritersSamePage(t *testing.T) {
	const procs = 8
	m, _ := machine(procs)
	a := m.AllocPage(mem.PageSize)
	_, err := m.Run(func(th *core.Thread) {
		// Each proc writes its own word of one falsely shared page.
		th.Store32(a+int64(4*th.Proc()), uint32(100+th.Proc()))
		th.Barrier(0)
		// Everyone must see everyone's word (diffs merged at home).
		for i := 0; i < procs; i++ {
			if got := th.Load32(a + int64(4*i)); got != uint32(100+i) {
				t.Errorf("proc %d: word %d = %d, want %d", th.Proc(), i, got, 100+i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.TotalCount(stats.DiffsCreated) == 0 {
		t.Fatal("expected diffs from non-home writers")
	}
	if m.Stats.TotalCount(stats.TwinsCreated) == 0 {
		t.Fatal("expected twins")
	}
}

func TestLockCarriesNotices(t *testing.T) {
	eachPolicy(t, func(t *testing.T, machine func(procs int) *core.Machine) {
		const procs = 8
		const iters = 5
		m := machine(procs)
		ctr := m.AllocPage(mem.PageSize)
		_, err := m.Run(func(th *core.Thread) {
			for i := 0; i < iters; i++ {
				th.Acquire(1)
				v := th.Load32(ctr)
				th.Compute(20)
				th.Store32(ctr, v+1)
				th.Release(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.ReadResultWord(ctr); got != procs*iters {
			t.Fatalf("counter = %d, want %d (LRC invalidation broken)", got, procs*iters)
		}
		if m.Stats.TotalCount(stats.Invalidations) == 0 {
			t.Fatal("expected write-notice invalidations")
		}
	})
}

func TestMigratoryData(t *testing.T) {
	eachPolicy(t, func(t *testing.T, machine func(procs int) *core.Machine) {
		// A token migrates around the ring under a lock; each holder
		// increments several words of the token page.
		const procs = 4
		m := machine(procs)
		tok := m.AllocPage(mem.PageSize)
		turn := m.AllocPage(mem.PageSize)
		rounds := 3
		_, err := m.Run(func(th *core.Thread) {
			me := th.Proc()
			for r := 0; r < rounds*procs; r++ {
				th.Acquire(0)
				cur := int(th.Load32(turn))
				if cur%procs == me {
					for w := 0; w < 16; w++ {
						v := th.Load32(tok + int64(4*w))
						th.Store32(tok+int64(4*w), v+1)
					}
					th.Store32(turn, uint32(cur+1))
				}
				th.Release(0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// The token page words were incremented exactly `turn` times.
		turns := m.ReadResultWord(turn)
		if turns == 0 {
			t.Fatal("no turns taken")
		}
		for w := 0; w < 16; w++ {
			if got := m.ReadResultWord(tok + int64(4*w)); got != turns {
				t.Fatalf("token word %d = %d, want %d", w, got, turns)
			}
		}
	})
}

func TestReadOnlySharingNoDiffs(t *testing.T) {
	m, _ := machine(4)
	a := m.AllocPage(mem.PageSize)
	m.InitWord(a, 5)
	_, err := m.Run(func(th *core.Thread) {
		for i := 0; i < 10; i++ {
			if got := th.Load32(a); got != 5 {
				t.Errorf("read %d, want 5", got)
			}
		}
		th.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.TotalCount(stats.DiffsCreated) != 0 {
		t.Fatal("read-only sharing should create no diffs")
	}
	// Only the 3 non-home nodes fetch; each once.
	if got := m.Stats.TotalCount(stats.PageFetches); got != 3 {
		t.Fatalf("page fetches = %d, want 3", got)
	}
}

func TestRepeatedEpochsRefetch(t *testing.T) {
	// Producer writes a page each epoch; consumers must refetch each
	// epoch (write notices invalidate their copies).
	const procs = 4
	const epochs = 3
	m, _ := machine(procs)
	a := m.AllocPage(mem.PageSize)
	_, err := m.Run(func(th *core.Thread) {
		for e := 1; e <= epochs; e++ {
			if th.Proc() == 1 {
				th.Store32(a, uint32(e))
			}
			th.Barrier(0)
			if got := th.Load32(a); got != uint32(e) {
				t.Errorf("epoch %d: proc %d read %d", e, th.Proc(), got)
			}
			th.Barrier(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAssignHome(t *testing.T) {
	m, p := machine(4)
	a := m.AllocPage(4 * mem.PageSize)
	p.AssignHome(a, 4*mem.PageSize, 3)
	m.InitWord(a, 42)
	// The value must live in node 3's memory.
	if got := m.NodeMem(3).ReadWord(a); got != 42 {
		t.Fatalf("home copy on node 3 = %d", got)
	}
	_, err := m.Run(func(th *core.Thread) {
		if th.Proc() == 3 {
			// Home reads need no fetch.
			if got := th.Load32(a); got != 42 {
				t.Errorf("home read %d", got)
			}
		}
		th.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats.Procs[3].Count[stats.PageFetches]; got != 0 {
		t.Fatalf("home node fetched its own page %d times", got)
	}
}

func TestConcurrentWriterInvalidationPreservesWrites(t *testing.T) {
	eachPolicy(t, func(t *testing.T, machine func(procs int) *core.Machine) {
		// Proc A writes word 0 under lock and proc B writes word 1 under the
		// same lock, back to back, while both also keep dirty state; the
		// flush-on-invalidate path must not lose writes.
		const procs = 2
		m := machine(procs)
		a := m.AllocPage(mem.PageSize)
		_, err := m.Run(func(th *core.Thread) {
			me := th.Proc()
			// Both write their own word WITHOUT synchronization first
			// (disjoint words: race-free at word granularity).
			th.Store32(a+int64(4*me), uint32(me+1))
			// Then serialize through a lock, which delivers notices.
			th.Acquire(0)
			th.Store32(a+int64(4*(me+4)), uint32(me+10))
			th.Release(0)
			th.Barrier(0)
			for i := 0; i < procs; i++ {
				if got := th.Load32(a + int64(4*i)); got != uint32(i+1) {
					t.Errorf("proc %d: unsync word %d = %d, want %d", me, i, got, i+1)
				}
				if got := th.Load32(a + int64(4*(i+4))); got != uint32(i+10) {
					t.Errorf("proc %d: locked word %d = %d, want %d", me, i, got, i+10)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBestCommConfigStillCorrect(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.MemLimit = 4 << 20
	cfg.Comm = comm.BetterThanBest()
	cfg.Costs = proto.BestCosts()
	p := hlrc.New(hlrc.Config{Costs: proto.BestCosts()})
	m := core.NewMachine(cfg, p)
	a := m.AllocPage(mem.PageSize)
	_, err := m.Run(func(th *core.Thread) {
		th.Acquire(0)
		v := th.Load32(a)
		th.Store32(a, v+1)
		th.Release(0)
		th.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadResultWord(a); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
}
