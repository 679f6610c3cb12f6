package lazyrc

import (
	"testing"
	"testing/quick"
)

// TestVCMergeLattice checks that the vector-clock merge is a lattice
// join (commutative, an upper bound, idempotent).
func TestVCMergeLattice(t *testing.T) {
	f := func(a, b [4]int32) bool {
		av, bv := a[:], b[:]
		m1 := cloneVC(av)
		maxVC(m1, bv)
		m2 := cloneVC(bv)
		maxVC(m2, av)
		for i := range m1 {
			if m1[i] != m2[i] { // commutative
				return false
			}
			if m1[i] < av[i] || m1[i] < bv[i] { // upper bound
				return false
			}
		}
		m3 := cloneVC(m1)
		maxVC(m3, bv) // idempotent
		for i := range m3 {
			if m3[i] != m1[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrantSize(t *testing.T) {
	n := []notice{
		{owner: 1, seq: 1, units: []int64{1, 2, 3}},
		{owner: 2, seq: 1, units: []int64{9}},
	}
	// 16 + 4*4 (vc) + (12+12) + (12+4) = 72
	if got := grantSize(4, n); got != 72 {
		t.Fatalf("grantSize = %d, want 72", got)
	}
}
