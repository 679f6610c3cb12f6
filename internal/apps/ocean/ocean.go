// Package ocean implements the Ocean kernel: iterative red-black
// Gauss-Seidel relaxation over a 2-D grid, the communication core of the
// SPLASH-2 Ocean simulation (Table 1: 514x514 in the paper; scaled).
//
// Two variants reproduce the paper's application-layer study:
//
//   - "ocean" (original, Ocean-Contiguous): processors own square
//     subgrids, each stored CONTIGUOUSLY (the SPLASH-2 4-D array
//     layout).  Row boundaries transfer as a few contiguous chunks, but
//     COLUMN boundaries are strided through the neighbour's subgrid —
//     little useful data per coherence unit, the paper's "message per
//     word of useful data" behaviour that makes Ocean-Contiguous
//     handler-bound (Table 4).
//   - "ocean-rowwise" (restructured): processors own strips of whole
//     rows, so all communication is contiguous boundary rows; the
//     message count collapses and coarse granularities win.
package ocean

import (
	"fmt"
	"math"

	"swsm/internal/apps"
	"swsm/internal/core"
)

const flopCycles = 2

// Ocean is one instance of the kernel.
type Ocean struct {
	name    string
	rowwise bool
	n       int // interior dimension; grid is (n+2)^2
	iters   int

	// addrOf maps logical cell (i,j) -> simulated address, built by the
	// decomposition-aware allocator.
	addrOf []int64
	init   []float64
	procs  int
}

// New builds the original square-subgrid (contiguous partitions) variant.
func New(s apps.Scale) apps.Instance { return build(s, false) }

// NewRowwise builds the restructured row-strip variant.
func NewRowwise(s apps.Scale) apps.Instance { return build(s, true) }

func build(s apps.Scale, rowwise bool) *Ocean {
	n, iters := 192, 6
	switch s {
	case apps.Tiny:
		n, iters = 32, 4
	case apps.Large:
		n, iters = 256, 8
	}
	name := "ocean"
	if rowwise {
		name = "ocean-rowwise"
	}
	return &Ocean{name: name, rowwise: rowwise, n: n, iters: iters}
}

// Name implements apps.Instance.
func (o *Ocean) Name() string { return o.name }

// MemBytes implements apps.Instance.
func (o *Ocean) MemBytes() int64 {
	return int64(o.n+2)*int64(o.n+2)*8 + 40*4096 + 2<<20
}

// SCBlock implements apps.Instance: Ocean's best SC granularity is 1 KB.
func (o *Ocean) SCBlock() int { return 1024 }

// Restructured implements apps.Instance.
func (o *Ocean) Restructured() bool { return o.rowwise }

func (o *Ocean) addr(i, j int) int64 { return o.addrOf[i*(o.n+2)+j] }

// cellOwner maps a logical cell to its owning processor; boundary-ring
// cells belong with the nearest interior cell.
func (o *Ocean) cellOwner(i, j, p int) int {
	ii, jj := i-1, j-1
	if ii < 0 {
		ii = 0
	}
	if ii >= o.n {
		ii = o.n - 1
	}
	if jj < 0 {
		jj = 0
	}
	if jj >= o.n {
		jj = o.n - 1
	}
	if o.rowwise {
		return rowBand(ii, o.n, p)
	}
	pr, pc := squareDims(p)
	return rowBand(ii, o.n, pr)*pc + rowBand(jj, o.n, pc)
}

// bands returns the band of every grid row and column, the boundary
// ring clamped to the nearest interior index as in cellOwner, and the
// number of column bands: cell (i, j) belongs to rows[i]*ncols+cols[j].
func (o *Ocean) bands() (rows, cols []int, ncols int) {
	nrows, ncols := o.procs, 1
	if !o.rowwise {
		nrows, ncols = squareDims(o.procs)
	}
	band := func(nb int) []int {
		b := make([]int, o.n+2)
		for i := range b {
			b[i] = rowBand(min(max(i-1, 0), o.n-1), o.n, nb)
		}
		return b
	}
	return band(nrows), band(ncols), ncols
}

// Setup builds the decomposition-aware contiguous layout and boundary
// conditions.
func (o *Ocean) Setup(m *core.Machine) {
	o.procs = m.Cfg.Procs
	w := o.n + 2
	o.addrOf = make([]int64, w*w)
	// Allocate each processor's cells contiguously (SPLASH-2 4-D array):
	// processors in order, each one's cells in row-major order.  Each
	// cell's owner comes from its row's and column's band, computed once.
	rows, cols, ncols := o.bands()
	count := make([]int64, o.procs)
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			count[rows[i]*ncols+cols[j]]++
		}
	}
	next := make([]int64, o.procs) // address of each processor's next cell
	for p := range next {
		next[p] = m.AllocPage(count[p] * 8)
		m.Place(next[p], count[p]*8, p)
	}
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			p := rows[i]*ncols + cols[j]
			o.addrOf[i*w+j] = next[p]
			next[p] += 8
		}
	}

	o.init = make([]float64, w*w)
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			var v float64
			switch {
			case i == 0:
				v = 1 + float64(j)*0.01 // warm north boundary
			case i == o.n+1:
				v = -1
			case j == 0 || j == o.n+1:
				v = 0.5
			default:
				v = 0
			}
			o.init[i*w+j] = v
			m.InitF64(o.addr(i, j), v)
		}
	}
}

// squareDims factors p into pr x pc with pr <= pc.
func squareDims(p int) (pr, pc int) {
	pr = int(math.Sqrt(float64(p)))
	for p%pr != 0 {
		pr--
	}
	return pr, p / pr
}

// rowBand returns which of the nb bands index i falls into.
func rowBand(i, n, nb int) int {
	for b := 0; b < nb; b++ {
		lo, hi := apps.BlockRange(n, nb, b)
		if i >= lo && i < hi {
			return b
		}
	}
	return nb - 1
}

// myRegion computes this processor's interior sub-rectangle
// [rlo,rhi) x [clo,chi) in interior coordinates (0..n).
func (o *Ocean) myRegion(id, p int) (rlo, rhi, clo, chi int) {
	if o.rowwise {
		rlo, rhi = apps.BlockRange(o.n, p, id)
		return rlo, rhi, 0, o.n
	}
	pr, pc := squareDims(p)
	ri, ci := id/pc, id%pc
	rlo, rhi = apps.BlockRange(o.n, pr, ri)
	clo, chi = apps.BlockRange(o.n, pc, ci)
	return rlo, rhi, clo, chi
}

// Run performs iters red-black relaxation sweeps.
func (o *Ocean) Run(t *core.Thread) {
	p := t.NumProcs()
	rlo, rhi, clo, chi := o.myRegion(t.Proc(), p)
	bar := 0
	for it := 0; it < o.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := rlo; i < rhi; i++ {
				gi := i + 1
				for j := clo; j < chi; j++ {
					gj := j + 1
					if (gi+gj)%2 != color {
						continue
					}
					up := t.LoadF64(o.addr(gi-1, gj))
					down := t.LoadF64(o.addr(gi+1, gj))
					left := t.LoadF64(o.addr(gi, gj-1))
					right := t.LoadF64(o.addr(gi, gj+1))
					t.StoreF64(o.addr(gi, gj), 0.25*(up+down+left+right))
				}
				// ~10 instructions of index arithmetic per updated cell.
				t.Compute(int64(chi-clo) / 2 * 10 * flopCycles)
			}
			t.Barrier(bar)
			bar ^= 1
		}
	}
}

// Verify compares against a sequential red-black reference (identical
// operation order => identical floating point).
func (o *Ocean) Verify(m *core.Machine) error {
	n := o.n
	w := n + 2
	g := make([]float64, w*w)
	copy(g, o.init)
	for it := 0; it < o.iters; it++ {
		for color := 0; color < 2; color++ {
			for gi := 1; gi <= n; gi++ {
				for gj := 1; gj <= n; gj++ {
					if (gi+gj)%2 != color {
						continue
					}
					g[gi*w+gj] = 0.25 * (g[(gi-1)*w+gj] + g[(gi+1)*w+gj] +
						g[gi*w+gj-1] + g[gi*w+gj+1])
				}
			}
		}
	}
	for gi := 1; gi <= n; gi++ {
		for gj := 1; gj <= n; gj++ {
			got := m.ReadResultF64(o.addr(gi, gj))
			want := g[gi*w+gj]
			if math.Abs(got-want) > 1e-12 {
				return fmt.Errorf("%s: cell (%d,%d) = %g, want %g", o.name, gi, gj, got, want)
			}
		}
	}
	return nil
}

var _ apps.Instance = (*Ocean)(nil)

func init() {
	apps.Register(apps.Info{
		Name: "ocean", BaseSize: "192x192 grid, 6 sweeps", PaperSize: "514x514 grid",
		InstrumentationPct: 20, Factory: New,
	})
	apps.Register(apps.Info{
		Name: "ocean-rowwise", BaseSize: "192x192 grid, 6 sweeps", PaperSize: "514x514 grid",
		InstrumentationPct: 20, RestructuredOf: "ocean", Factory: NewRowwise,
	})
}
