package wdiff

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// naive is the reference word-by-word implementation.
func naive(twin, cur []byte) []Word {
	var out []Word
	for w := 0; w < len(twin)/WordSize; w++ {
		o := w * WordSize
		a := binary.LittleEndian.Uint32(twin[o:])
		b := binary.LittleEndian.Uint32(cur[o:])
		if a != b {
			out = append(out, Word{Off: uint16(w), Val: b})
		}
	}
	return out
}

// TestAppendMatchesNaive checks the 8-byte-wide scan against the word
// loop across unit sizes, including the word-grain tail (non-multiple
// of 8) and dense/sparse modification patterns.
func TestAppendMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, size := range []int{4, 8, 12, 64, 128, 4096} {
		for trial := 0; trial < 20; trial++ {
			twin := make([]byte, size)
			r.Read(twin)
			cur := make([]byte, size)
			copy(cur, twin)
			nw := r.Intn(size/WordSize + 1)
			for i := 0; i < nw; i++ {
				w := r.Intn(size / WordSize)
				binary.LittleEndian.PutUint32(cur[w*WordSize:], r.Uint32())
			}
			want := naive(twin, cur)
			got := Append(nil, twin, cur)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size=%d trial=%d: got %v, want %v", size, trial, got, want)
			}
		}
	}
}

// TestAppendReusesScratch checks that reusing a scratch buffer produces
// correct results without growing allocations once warm.
func TestAppendReusesScratch(t *testing.T) {
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	for w := 0; w < 1024; w += 3 {
		binary.LittleEndian.PutUint32(cur[w*WordSize:], uint32(w+1))
	}
	scratch := Append(nil, twin, cur)
	first := append([]Word(nil), scratch...)
	scratch = Append(scratch[:0], twin, cur)
	if !reflect.DeepEqual(scratch, first) {
		t.Fatal("scratch reuse changed the diff")
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = Append(scratch[:0], twin, cur)
	})
	if allocs != 0 {
		t.Fatalf("warm Append allocates %v times per run", allocs)
	}
}

// TestApplyReconstructs checks Apply(twin, Append(twin, cur)) == cur.
func TestApplyReconstructs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	twin := make([]byte, 4096)
	r.Read(twin)
	cur := make([]byte, 4096)
	r.Read(cur)
	d := Append(nil, twin, cur)
	frame := make([]byte, 4096)
	copy(frame, twin)
	Apply(frame, d)
	for i := range cur {
		if frame[i] != cur[i] {
			t.Fatalf("byte %d: got %d, want %d", i, frame[i], cur[i])
		}
	}
}

func TestDiffEmpty(t *testing.T) {
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	if d := Append(nil, twin, cur); len(d) != 0 {
		t.Fatalf("identical pages produced %d diff words", len(d))
	}
}

func TestDiffSingleWord(t *testing.T) {
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	binary.LittleEndian.PutUint32(cur[100*WordSize:], 0xdeadbeef)
	d := Append(nil, twin, cur)
	if len(d) != 1 || d[0].Off != 100 || d[0].Val != 0xdeadbeef {
		t.Fatalf("diff = %+v", d)
	}
}

// TestDiffApplyIsIdentity checks Apply(twin, Append(twin, cur)) == cur
// for pages with a few random words rewritten.
func TestDiffApplyIsIdentity(t *testing.T) {
	const words = 4096 / WordSize
	r := rand.New(rand.NewSource(7))
	f := func(seed int64, nWrites uint8) bool {
		r.Seed(seed)
		twin := make([]byte, 4096)
		r.Read(twin)
		cur := append([]byte(nil), twin...)
		for i := 0; i < int(nWrites); i++ {
			w := r.Intn(words)
			binary.LittleEndian.PutUint32(cur[w*WordSize:], r.Uint32())
		}
		frame := append([]byte(nil), twin...)
		Apply(frame, Append(nil, twin, cur))
		return reflect.DeepEqual(frame, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointDiffsCommute checks that concurrent diffs touching
// disjoint words commute (the multiple-writer guarantee for
// data-race-free programs).
func TestDisjointDiffsCommute(t *testing.T) {
	const words = 4096 / WordSize
	base := make([]byte, 4096)
	curA := make([]byte, 4096)
	curB := make([]byte, 4096)
	for w := 0; w < words; w++ {
		v := uint32(w * 3)
		binary.LittleEndian.PutUint32(base[w*WordSize:], v)
		binary.LittleEndian.PutUint32(curA[w*WordSize:], v)
		binary.LittleEndian.PutUint32(curB[w*WordSize:], v)
	}
	// A writes even words, B writes odd words.
	for w := 0; w < words; w++ {
		if w%2 == 0 {
			binary.LittleEndian.PutUint32(curA[w*WordSize:], uint32(1000+w))
		} else {
			binary.LittleEndian.PutUint32(curB[w*WordSize:], uint32(2000+w))
		}
	}
	dA := Append(nil, base, curA)
	dB := Append(nil, base, curB)

	ab := append([]byte(nil), base...)
	ba := append([]byte(nil), base...)
	Apply(ab, dA)
	Apply(ab, dB)
	Apply(ba, dB)
	Apply(ba, dA)
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("diff application order matters at byte %d", i)
		}
	}
	// And both writers' updates survive.
	for w := 0; w < words; w++ {
		got := binary.LittleEndian.Uint32(ab[w*WordSize:])
		want := uint32(1000 + w)
		if w%2 == 1 {
			want = uint32(2000 + w)
		}
		if got != want {
			t.Fatalf("word %d = %d, want %d", w, got, want)
		}
	}
}

// BenchmarkApplyDiff measures patching a page with a diff of every
// eighth word.
func BenchmarkApplyDiff(b *testing.B) {
	twin, cur := benchInput(8)
	d := Append(nil, twin, cur)
	page := append([]byte(nil), twin...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Apply(page, d)
	}
}
