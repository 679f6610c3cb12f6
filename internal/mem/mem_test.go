package mem

import (
	"testing"
	"testing/quick"
)

func TestLazyAllocation(t *testing.T) {
	m := NewNodeMem(1 << 20)
	if m.Allocated(5) {
		t.Fatal("page allocated before first touch")
	}
	m.WriteWord(5*PageSize+16, 42)
	if !m.Allocated(5) {
		t.Fatal("page not allocated after write")
	}
	if m.Allocated(6) {
		t.Fatal("neighbour page allocated spuriously")
	}
	if got := m.ReadWord(5*PageSize + 16); got != 42 {
		t.Fatalf("read back %d, want 42", got)
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := NewNodeMem(1 << 16)
	f := func(off uint16, v uint32) bool {
		a := Addr(off) &^ 3
		m.WriteWord(a, v)
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF64RoundTrip(t *testing.T) {
	m := NewNodeMem(1 << 16)
	f := func(off uint16, v float64) bool {
		a := Addr(off) &^ 7
		m.WriteF64(a, v)
		return m.ReadF64(a) == v || v != v // NaN compares false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU64AcrossPageBoundary(t *testing.T) {
	m := NewNodeMem(1 << 20)
	a := Addr(PageSize - 4)
	m.WriteU64(a, 0x1122334455667788)
	if got := m.ReadU64(a); got != 0x1122334455667788 {
		t.Fatalf("cross-page u64 = %x", got)
	}
}

func TestCopySpansPages(t *testing.T) {
	m := NewNodeMem(1 << 20)
	src := make([]byte, 3*PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	base := Addr(PageSize - 100)
	m.CopyIn(base, src)
	dst := make([]byte, len(src))
	m.CopyOut(base, dst)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: %d != %d", i, src[i], dst[i])
		}
	}
}

func TestNodesIndependent(t *testing.T) {
	a := NewNodeMem(1 << 16)
	b := NewNodeMem(1 << 16)
	a.WriteWord(0, 1)
	if b.ReadWord(0) != 0 {
		t.Fatal("node memories share state")
	}
}

func TestArenaAlignment(t *testing.T) {
	ar := NewArena(100, 1<<20)
	a := ar.Alloc(10, 0)
	if a%WordSize != 0 {
		t.Fatalf("default alloc not word aligned: %d", a)
	}
	p := ar.AllocPage(10)
	if p%PageSize != 0 {
		t.Fatalf("page alloc not page aligned: %d", p)
	}
	q := ar.Alloc(8, 64)
	if q%64 != 0 {
		t.Fatalf("64B alloc not aligned: %d", q)
	}
	if q < p+10 {
		t.Fatal("allocations overlap")
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ar := NewArena(0, 128)
	ar.Alloc(256, 0)
}

func TestPageOfBase(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageSize-1) != 0 || PageOf(PageSize) != 1 {
		t.Fatal("PageOf wrong")
	}
	if PageBase(3) != 3*PageSize {
		t.Fatal("PageBase wrong")
	}
}

// TestReusedFrameReadsZero fills frames with ones, releases them and
// checks that a later memory's frames read all zero, whether or not they
// are the recycled ones.  The pool may drop a release (the race detector
// drops some on purpose), so the test repeats until a frame has actually
// been reused.
func TestReusedFrameReadsZero(t *testing.T) {
	reused := 0
	for i := 0; i < 50 && reused < 3; i++ {
		old := NewNodeMem(4 * PageSize)
		released := make(map[*[PageSize]byte]bool)
		for pn := int64(0); pn < 4; pn++ {
			f := old.Frame(pn)
			for j := range f {
				f[j] = 0xff
			}
			released[f] = true
		}
		old.Release()
		m := NewNodeMem(4 * PageSize)
		for pn := int64(0); pn < 4; pn++ {
			f := m.Frame(pn)
			if released[f] {
				reused++
			}
			if *f != [PageSize]byte{} {
				t.Fatalf("frame of page %d is not zero", pn)
			}
			if m.ReadU64(PageBase(pn)+8) != 0 {
				t.Fatalf("page %d reads nonzero", pn)
			}
		}
		m.Release()
	}
	if reused == 0 {
		t.Fatal("no frame was reused")
	}
}

func TestReleasedMemPanics(t *testing.T) {
	m := NewNodeMem(PageSize)
	m.WriteWord(16, 7)
	m.Release()
	if m.Allocated(0) {
		t.Fatal("released memory still reports a frame")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ReadWord after Release did not panic")
		}
	}()
	m.ReadWord(16)
}
