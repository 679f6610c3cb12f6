// Package radix implements the SPLASH-2 integer radix sort (Table 1: 1M
// keys in the paper; scaled).  The permutation phase writes every key to
// its globally ranked position — an all-to-all scatter whose page-grain
// false sharing makes Radix the paper's worst HLRC application (speedup
// 0.x at the base configuration, bandwidth-bound even at B).
//
// The restructured variant ("radix-local") first groups keys into local
// per-digit buckets and then writes each bucket as one contiguous run —
// the paper's "write to a local buffer first" restructuring, which makes
// remote access granularity large.
package radix

import (
	"fmt"
	"math/rand"
	"slices"

	"swsm/internal/apps"
	"swsm/internal/core"
)

const (
	digitBits = 8
	radixSize = 1 << digitBits
	keyBits   = 16 // two passes
)

// Radix is one instance of the sort.
type Radix struct {
	name  string
	local bool
	n     int

	from, to apps.U32
	hist     apps.U32 // hist[p*R + d]
	rank     apps.U32 // rank[p*R + d]: global start offset for proc p, digit d
	scratch  apps.U32 // per-proc local buckets region (radix-local only)
	input    []uint32
	procs    int
}

// New builds the original scattered-permutation variant.
func New(s apps.Scale) apps.Instance { return build(s, false) }

// NewLocal builds the restructured local-buffer variant.
func NewLocal(s apps.Scale) apps.Instance { return build(s, true) }

func build(s apps.Scale, local bool) *Radix {
	n := 65536
	switch s {
	case apps.Tiny:
		n = 4096
	case apps.Large:
		n = 262144
	}
	name := "radix"
	if local {
		name = "radix-local"
	}
	return &Radix{name: name, local: local, n: n}
}

// Name implements apps.Instance.
func (r *Radix) Name() string { return r.name }

// MemBytes implements apps.Instance.
func (r *Radix) MemBytes() int64 {
	return int64(r.n)*8 + 64*radixSize*4*2 + int64(r.n)*4 + 4<<20
}

// SCBlock implements apps.Instance.
func (r *Radix) SCBlock() int { return 64 }

// Restructured implements apps.Instance.
func (r *Radix) Restructured() bool { return r.local }

// Setup allocates key arrays and histograms and fills random keys.
func (r *Radix) Setup(m *core.Machine) {
	p := m.Cfg.Procs
	r.procs = p
	keyBytes := int64(r.n) * 4
	r.from = apps.U32{Base: m.AllocPage(keyBytes)}
	r.to = apps.U32{Base: m.AllocPage(keyBytes)}
	r.hist = apps.U32{Base: m.AllocPage(int64(p) * radixSize * 4)}
	r.rank = apps.U32{Base: m.AllocPage(int64(p) * radixSize * 4)}
	if r.local {
		r.scratch = apps.U32{Base: m.AllocPage(keyBytes)}
	}
	for id := 0; id < p; id++ {
		lo, hi := apps.BlockRange(r.n, p, id)
		m.Place(r.from.Base+int64(lo)*4, int64(hi-lo)*4, id)
		m.Place(r.to.Base+int64(lo)*4, int64(hi-lo)*4, id)
		m.Place(r.hist.Base+int64(id)*radixSize*4, radixSize*4, id)
		m.Place(r.rank.Base+int64(id)*radixSize*4, radixSize*4, id)
		if r.local {
			m.Place(r.scratch.Base+int64(lo)*4, int64(hi-lo)*4, id)
		}
	}
	rng := rand.New(rand.NewSource(5))
	r.input = make([]uint32, r.n)
	for i := range r.input {
		r.input[i] = uint32(rng.Intn(1 << keyBits))
		r.from.Init(m, i, r.input[i])
	}
}

// Run sorts by successive digits.
func (r *Radix) Run(t *core.Thread) {
	p := t.NumProcs()
	me := t.Proc()
	lo, hi := apps.BlockRange(r.n, p, me)
	src, dst := r.from, r.to
	bar := 0
	for shift := 0; shift < keyBits; shift += digitBits {
		// Phase 1: local histogram.
		var local [radixSize]uint32
		for i := lo; i < hi; i++ {
			k := src.Get(t, i)
			local[(k>>uint(shift))&(radixSize-1)]++
		}
		t.Compute(int64(hi-lo) * 4)
		for d := 0; d < radixSize; d++ {
			r.hist.Set(t, me*radixSize+d, local[d])
		}
		t.Barrier(bar)
		bar ^= 1

		// Phase 2: processor 0 computes global ranks.
		if me == 0 {
			off := uint32(0)
			for d := 0; d < radixSize; d++ {
				for q := 0; q < p; q++ {
					r.rank.Set(t, q*radixSize+d, off)
					off += r.hist.Get(t, q*radixSize+d)
				}
			}
			t.Compute(int64(p * radixSize * 2))
		}
		t.Barrier(bar)
		bar ^= 1

		// Phase 3: permutation.
		var next [radixSize]uint32
		for d := 0; d < radixSize; d++ {
			next[d] = r.rank.Get(t, me*radixSize+d)
		}
		if r.local {
			r.permuteLocal(t, src, dst, lo, hi, shift, &next)
		} else {
			r.permuteScattered(t, src, dst, lo, hi, shift, &next)
		}
		t.Barrier(bar)
		bar ^= 1
		src, dst = dst, src
	}
}

// permuteScattered writes each key straight to its global slot (the
// original fine-grained scatter).
func (r *Radix) permuteScattered(t *core.Thread, src, dst apps.U32, lo, hi, shift int, next *[radixSize]uint32) {
	for i := lo; i < hi; i++ {
		k := src.Get(t, i)
		d := (k >> uint(shift)) & (radixSize - 1)
		dst.Set(t, int(next[d]), k)
		next[d]++
	}
	t.Compute(int64(hi-lo) * 6)
}

// permuteLocal first buckets keys into a processor-local scratch region,
// then copies each bucket contiguously to its global range.
func (r *Radix) permuteLocal(t *core.Thread, src, dst apps.U32, lo, hi, shift int, next *[radixSize]uint32) {
	// Bucket into scratch (local writes).
	var count [radixSize]uint32
	for i := lo; i < hi; i++ {
		k := src.Get(t, i)
		count[(k>>uint(shift))&(radixSize-1)]++
	}
	var start [radixSize]uint32
	acc := uint32(lo)
	for d := 0; d < radixSize; d++ {
		start[d] = acc
		acc += count[d]
	}
	fill := start
	for i := lo; i < hi; i++ {
		k := src.Get(t, i)
		d := (k >> uint(shift)) & (radixSize - 1)
		r.scratch.Set(t, int(fill[d]), k)
		fill[d]++
	}
	t.Compute(int64(hi-lo) * 8)
	// Copy buckets contiguously to their global destinations.
	for d := 0; d < radixSize; d++ {
		base := next[d]
		for j := uint32(0); j < count[d]; j++ {
			dst.Set(t, int(base+j), r.scratch.Get(t, int(start[d]+j)))
		}
	}
	t.Compute(int64(hi-lo) * 2)
}

// Verify checks the final array is the sorted input.
func (r *Radix) Verify(m *core.Machine) error {
	want := append([]uint32(nil), r.input...)
	slices.Sort(want)
	// Two passes: result back in `from`.
	final := r.from
	for i := 0; i < r.n; i++ {
		if got := final.Result(m, i); got != want[i] {
			return fmt.Errorf("%s: key[%d] = %d, want %d", r.name, i, got, want[i])
		}
	}
	return nil
}

var _ apps.Instance = (*Radix)(nil)

func init() {
	apps.Register(apps.Info{
		Name: "radix", BaseSize: "64K keys", PaperSize: "1M keys",
		InstrumentationPct: 33, Factory: New,
	})
	apps.Register(apps.Info{
		Name: "radix-local", BaseSize: "64K keys", PaperSize: "1M keys",
		InstrumentationPct: 33, RestructuredOf: "radix", Factory: NewLocal,
	})
}
