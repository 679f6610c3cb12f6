package ocean

import (
	"testing"

	"swsm/internal/apps"
	"swsm/internal/core"
	"swsm/internal/proto/ideal"
)

func TestSquareDims(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4}}
	for p, want := range cases {
		pr, pc := squareDims(p)
		if pr != want[0] || pc != want[1] {
			t.Fatalf("squareDims(%d) = %d,%d want %v", p, pr, pc, want)
		}
		if pr*pc != p {
			t.Fatalf("squareDims(%d) does not factor", p)
		}
	}
}

func TestRegionsPartitionInterior(t *testing.T) {
	for _, rowwise := range []bool{false, true} {
		o := build(apps.Tiny, rowwise)
		for _, p := range []int{1, 4, 8, 16} {
			covered := make([][]bool, o.n)
			for i := range covered {
				covered[i] = make([]bool, o.n)
			}
			for id := 0; id < p; id++ {
				rlo, rhi, clo, chi := o.myRegion(id, p)
				for i := rlo; i < rhi; i++ {
					for j := clo; j < chi; j++ {
						if covered[i][j] {
							t.Fatalf("cell (%d,%d) owned twice (p=%d rowwise=%v)", i, j, p, rowwise)
						}
						covered[i][j] = true
					}
				}
			}
			for i := 0; i < o.n; i++ {
				for j := 0; j < o.n; j++ {
					if !covered[i][j] {
						t.Fatalf("cell (%d,%d) unowned (p=%d rowwise=%v)", i, j, p, rowwise)
					}
				}
			}
		}
	}
}

func TestCellOwnerMatchesRegion(t *testing.T) {
	o := build(apps.Tiny, false)
	p := 4
	for id := 0; id < p; id++ {
		rlo, rhi, clo, chi := o.myRegion(id, p)
		for i := rlo; i < rhi; i++ {
			for j := clo; j < chi; j++ {
				if got := o.cellOwner(i+1, j+1, p); got != id {
					t.Fatalf("cellOwner(%d,%d) = %d, region says %d", i+1, j+1, got, id)
				}
			}
		}
	}
}

// TestSetupLayoutMatchesPerProcessorScan pins Setup's cell layout to
// the straightforward construction it replaces: for each processor in
// turn, allocate its cells and number them in row-major order by
// scanning the whole grid with cellOwner.
func TestSetupLayoutMatchesPerProcessorScan(t *testing.T) {
	newMachine := func(o *Ocean, procs int) *core.Machine {
		cfg := core.DefaultConfig()
		cfg.Procs = procs
		cfg.MemLimit = o.MemBytes()
		return core.NewMachine(cfg, ideal.New())
	}
	for _, rowwise := range []bool{false, true} {
		for _, procs := range []int{1, 4, 8, 16} {
			o := build(apps.Tiny, rowwise)
			o.Setup(newMachine(o, procs))

			m := newMachine(o, procs)
			w := o.n + 2
			want := make([]int64, w*w)
			for p := 0; p < procs; p++ {
				count := int64(0)
				for c := range want {
					if o.cellOwner(c/w, c%w, procs) == p {
						count++
					}
				}
				addr := m.AllocPage(count * 8)
				for c := range want {
					if o.cellOwner(c/w, c%w, procs) == p {
						want[c] = addr
						addr += 8
					}
				}
			}
			for c := range want {
				if o.addrOf[c] != want[c] {
					t.Fatalf("rowwise=%v procs=%d: cell (%d,%d) at %#x, want %#x",
						rowwise, procs, c/w, c%w, o.addrOf[c], want[c])
				}
			}
		}
	}
}
