package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func tiny() Config {
	return Config{
		LineSize: 32, L1Size: 256, L1Assoc: 2, L2Size: 1024, L2Assoc: 2,
		L2HitCycles: 10, MemCycles: 60, WritebackCycles: 30,
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(tiny())
	stall, m1, m2 := c.Access(0x100, 4, false)
	if !m1 || !m2 || stall != 60 {
		t.Fatalf("cold access: stall=%d m1=%v m2=%v", stall, m1, m2)
	}
	stall, m1, m2 = c.Access(0x104, 4, false) // same line
	if m1 || m2 || stall != 0 {
		t.Fatalf("warm access: stall=%d m1=%v m2=%v", stall, m1, m2)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	c := New(tiny()) // L1: 8 lines, 2-way, 4 sets; set = (addr>>5)&3
	// Fill one L1 set with 3 distinct lines mapping to set 0: strides of 128.
	c.Access(0*128, 4, false)
	c.Access(1*128, 4, false)
	c.Access(2*128, 4, false) // evicts line 0 from L1; L2 keeps it
	stall, m1, m2 := c.Access(0, 4, false)
	if !m1 || m2 {
		t.Fatalf("expected L1 miss, L2 hit; got m1=%v m2=%v", m1, m2)
	}
	if stall != 10 {
		t.Fatalf("L2 hit stall = %d, want 10", stall)
	}
}

func TestDirtyWritebackCharged(t *testing.T) {
	c := New(tiny())                         // L2: 32 lines, 2-way, 16 sets; same-set stride = 512
	c.Access(0*512, 4, true)                 // dirty
	c.Access(1*512, 4, true)                 // dirty
	stall, _, _ := c.Access(2*512, 4, false) // evicts dirty victim from L2
	if stall != 60+30 {
		t.Fatalf("stall = %d, want 90 (mem + writeback)", stall)
	}
}

func TestInvalidateRange(t *testing.T) {
	c := New(tiny())
	c.Access(0x200, 4, true)
	if !c.Contains(0x200) {
		t.Fatal("line should be cached")
	}
	c.InvalidateRange(0x200, 64)
	if c.Contains(0x200) {
		t.Fatal("line should be invalidated")
	}
	stall, _, _ := c.Access(0x200, 4, false)
	if stall != 60 {
		t.Fatalf("post-invalidate access stall = %d, want 60", stall)
	}
}

func TestMultiLineAccess(t *testing.T) {
	c := New(tiny())
	// 8-byte access straddling a line boundary touches two lines.
	stall, _, _ := c.Access(32-4, 8, false)
	if stall != 120 {
		t.Fatalf("straddling access stall = %d, want 120", stall)
	}
}

func TestTouchPollutes(t *testing.T) {
	c := New(tiny())
	c.Access(0, 4, false) // app line in L1 set 0
	// Protocol touch of a large buffer mapping over all sets evicts it
	// from L1 (tiny L1 = 256B).
	c.Touch(0x1000, 512, true)
	// The line should now miss in L1 (possibly still in L2).
	_, m1, _ := c.Access(0, 4, false)
	if !m1 {
		t.Fatal("protocol touch should have polluted L1")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(tiny()) // L1 2-way; set stride 128
	c.Access(0, 4, false)
	c.Access(128, 4, false)
	c.Access(0, 4, false)   // refresh line 0
	c.Access(256, 4, false) // should evict 128, not 0
	if _, m1, _ := c.Access(0, 4, false); m1 {
		t.Fatal("LRU evicted the recently used line")
	}
}

// Property: a second access to any address immediately after the first is
// always an L1 hit with zero stall, regardless of history.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	c := New(DefaultConfig())
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := int64(a % (1 << 24))
			c.Access(addr, 4, a%2 == 0)
			stall, m1, _ := c.Access(addr, 4, false)
			if stall != 0 || m1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: miss counters are monotone and L2Misses <= L1Misses <= Accesses.
func TestCounterInvariant(t *testing.T) {
	c := New(tiny())
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		c.Access(int64(r.Intn(1<<16)), 4, r.Intn(2) == 0)
		if c.L2Misses > c.L1Misses || c.L1Misses > c.Accesses {
			t.Fatalf("counter invariant violated: acc=%d l1=%d l2=%d",
				c.Accesses, c.L1Misses, c.L2Misses)
		}
	}
}

func TestWorkingSetFits(t *testing.T) {
	c := New(DefaultConfig())
	// A 8KB working set fits in 16KB L1: after a warmup pass, the second
	// pass must be all hits.
	for a := int64(0); a < 8192; a += 32 {
		c.Access(a, 4, false)
	}
	before := c.L1Misses
	for a := int64(0); a < 8192; a += 32 {
		c.Access(a, 4, false)
	}
	if c.L1Misses != before {
		t.Fatalf("second pass over fitting working set missed %d times", c.L1Misses-before)
	}
}

// refLevel is the level as it was before its sets were packed and before
// the L1 MRU fast path: a full line number per way with -1 marking an
// invalid way, an LRU tick per way that every probe advances, and arrays
// allocated fresh.  It is the reference the randomized tests and the
// fuzz target hold the pooled, packed level to.
type refLevel struct {
	tags     []int64
	meta     []uint64
	assoc    int
	setMask  int64
	lineBits uint
	tick     uint64
	mruIdx   int32
	mruTag   int64
}

const refFree, refNoMRU = int64(-1), int64(-1) << 62

func newRefLevel(size, assoc, lineSize int) *refLevel {
	nLines := size / lineSize
	if nLines < assoc {
		assoc = nLines
	}
	nSets := max(nLines/assoc, 1)
	l := &refLevel{assoc: assoc, setMask: int64(nSets - 1), mruTag: refNoMRU}
	for 1<<l.lineBits < lineSize {
		l.lineBits++
	}
	l.tags = make([]int64, nSets*assoc)
	for i := range l.tags {
		l.tags[i] = refFree
	}
	l.meta = make([]uint64, nSets*assoc)
	return l
}

func (l *refLevel) access(addr int64, write bool) (hit, victimDirty bool) {
	l.tick++
	var w uint64
	if write {
		w = 1
	}
	tag := addr >> l.lineBits
	if tag == l.mruTag {
		i := l.mruIdx
		l.meta[i] = l.tick<<1 | l.meta[i]&1 | w
		return true, false
	}
	base := int(tag&l.setMask) * l.assoc
	tags := l.tags[base : base+l.assoc]
	for i := range tags {
		if tags[i] == tag {
			idx := base + i
			l.meta[idx] = l.tick<<1 | l.meta[idx]&1 | w
			l.mruIdx, l.mruTag = int32(idx), tag
			return true, false
		}
	}
	victim := 0
	vFree := tags[0] == refFree
	vLRU := l.meta[base] >> 1
	for i := 1; i < len(tags); i++ {
		if tags[i] == refFree {
			victim, vFree = i, true
		} else if !vFree {
			if lru := l.meta[base+i] >> 1; lru < vLRU {
				victim, vLRU = i, lru
			}
		}
	}
	idx := base + victim
	victimDirty = tags[victim] != refFree && l.meta[idx]&1 != 0
	tags[victim] = tag
	l.meta[idx] = l.tick<<1 | w
	l.mruIdx, l.mruTag = int32(idx), tag
	return false, victimDirty
}

func (l *refLevel) invalidate(addr int64) {
	tag := addr >> l.lineBits
	base := int(tag&l.setMask) * l.assoc
	for i := base; i < base+l.assoc; i++ {
		if l.tags[i] == tag {
			l.tags[i] = refFree
			l.meta[i] = 0
			if l.mruTag == tag {
				l.mruTag = refNoMRU
			}
			return
		}
	}
}

func (l *refLevel) contains(addr int64) bool {
	tag := addr >> l.lineBits
	base := int(tag&l.setMask) * l.assoc
	for _, t := range l.tags[base : base+l.assoc] {
		if t == tag {
			return true
		}
	}
	return false
}

// refCache is Cache over two refLevels.
type refCache struct {
	cfg                          Config
	l1, l2                       *refLevel
	accesses, l1Misses, l2Misses int64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg,
		l1: newRefLevel(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		l2: newRefLevel(cfg.L2Size, cfg.L2Assoc, cfg.LineSize)}
}

func (c *refCache) line(addr int64, write bool) (stall int64, m1, m2 bool) {
	c.accesses++
	if hit, _ := c.l1.access(addr, write); hit {
		return 0, false, false
	}
	c.l1Misses++
	hit, dirty := c.l2.access(addr, write)
	if hit {
		return c.cfg.L2HitCycles, true, false
	}
	c.l2Misses++
	stall = c.cfg.MemCycles
	if dirty {
		stall += c.cfg.WritebackCycles
	}
	return stall, true, true
}

func (c *refCache) access(addr int64, size int, write bool) (stall int64, m1, m2 bool) {
	ls := int64(c.cfg.LineSize)
	first := addr &^ (ls - 1)
	for a := first; a <= (addr+int64(size)-1)&^(ls-1); a += ls {
		s, x1, x2 := c.line(a, write)
		stall += s
		if a == first {
			m1, m2 = x1, x2
		}
	}
	return stall, m1, m2
}

func (c *refCache) touch(addr int64, size int, write bool) (stall int64) {
	ls := int64(c.cfg.LineSize)
	for a := addr &^ (ls - 1); a < addr+int64(size); a += ls {
		s, _, _ := c.line(a, write)
		stall += s
	}
	return stall
}

func (c *refCache) contains(addr int64) bool {
	return c.l1.contains(addr) || c.l2.contains(addr)
}

func (c *refCache) invalidateRange(addr int64, size int) {
	ls := int64(c.cfg.LineSize)
	for a := addr &^ (ls - 1); a < addr+int64(size); a += ls {
		c.l1.invalidate(a)
		c.l2.invalidate(a)
	}
}

// probe makes one data reference the way the core's access path does:
// the MRU fast path first, then the full probe.
func probe(c *Cache, addr int64, size int, write bool) (stall int64, m1, m2 bool) {
	if c.HitMRU(addr, size, write) {
		return 0, false, false
	}
	return c.Access(addr, size, write)
}

// replay drives c and ref through the same seeded stream of references,
// protocol touches and invalidations over [lo, lo+8 L2s), failing at
// the first difference in stalls, miss flags, counters or contents.
func replay(t *testing.T, c *Cache, ref *refCache, seed, lo int64, n int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	// A footprint of 8 L2s keeps the stream missing in both levels, and a
	// hot region a few L1 lines wide keeps it hitting the MRU line.
	span := int64(8 * c.cfg.L2Size)
	hot := lo
	for i := 0; i < n; i++ {
		var got, want [3]int64
		switch op := r.Intn(100); {
		case op < 70:
			if r.Intn(4) == 0 {
				hot = lo + r.Int63n(span-72)
			}
			size := []int{4, 8}[r.Intn(2)]
			addr := (hot + int64(r.Intn(64))) &^ 3
			write := r.Intn(3) == 0
			s, m1, m2 := probe(c, addr, size, write)
			got = [3]int64{s, b2i(m1), b2i(m2)}
			s, m1, m2 = ref.access(addr, size, write)
			want = [3]int64{s, b2i(m1), b2i(m2)}
		case op < 85:
			size, write := 1+r.Intn(512), r.Intn(2) == 0
			addr := lo + r.Int63n(span-int64(size))
			got[0], want[0] = c.Touch(addr, size, write), ref.touch(addr, size, write)
		default:
			size := 1 + r.Intn(4096)
			addr := lo + r.Int63n(span-int64(size))
			c.InvalidateRange(addr, size)
			ref.invalidateRange(addr, size)
		}
		if got != want {
			t.Fatalf("seed %d op %d: got %v, want %v", seed, i, got, want)
		}
		if c.Accesses != ref.accesses || c.L1Misses != ref.l1Misses || c.L2Misses != ref.l2Misses {
			t.Fatalf("seed %d op %d: counters %d/%d/%d, want %d/%d/%d", seed, i,
				c.Accesses, c.L1Misses, c.L2Misses, ref.accesses, ref.l1Misses, ref.l2Misses)
		}
		if a := lo + r.Int63n(span); c.Contains(a) != ref.contains(a) {
			t.Fatalf("seed %d op %d: Contains(%#x) = %v", seed, i, a, c.Contains(a))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// smallCache is a hierarchy small enough for a short random stream to
// fill, evict and write back, at the given associativity in both levels.
func smallCache(assoc int) Config {
	cfg := tiny()
	cfg.L1Size, cfg.L1Assoc = 1024, assoc
	cfg.L2Size, cfg.L2Assoc = 8192, assoc
	return cfg
}

// TestMatchesReferenceLevel holds the cache, with its MRU fast path and
// packed set records, to the reference level over seeded streams at
// every associativity the study's configurations could use: once at the
// bottom of the address space, and once in the 8 L2s just below the
// hierarchy's reach, where the L1's top lines take the widest tag a
// 16-bit lane holds.
func TestMatchesReferenceLevel(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := smallCache(assoc)
		top := cfg.Reach() - int64(8*cfg.L2Size)
		for seed := int64(1); seed <= 4; seed++ {
			replay(t, New(cfg), newRefCache(cfg), seed*10+int64(assoc), 0, 20000)
			replay(t, New(cfg), newRefCache(cfg), seed*10+int64(assoc), top, 20000)
		}
	}
}

// TestReach pins the reach of the default hierarchy and of each small
// one, and checks that every line below it installs and every address
// at or beyond it panics, naming the reach, rather than alias a line.
func TestReach(t *testing.T) {
	if got, want := DefaultConfig().Reach(), int64(0xFFFF*4096); got != want {
		t.Fatalf("DefaultConfig().Reach() = %d, want %d (0xFFFF L1 ways of 4 KB)", got, want)
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := smallCache(assoc)
		reach := cfg.Reach()
		if want := int64(0xFFFF * 1024 / assoc); reach != want {
			t.Fatalf("assoc %d: Reach() = %d, want %d", assoc, reach, want)
		}
		c := New(cfg)
		for _, a := range []int64{reach - 4, reach - int64(cfg.L1Size), reach - 2*int64(cfg.L1Size)} {
			c.Access(a, 4, true)
			if !c.Contains(a) {
				t.Fatalf("assoc %d: line %#x below the reach not cached", assoc, a)
			}
		}
		for _, a := range []int64{reach, reach + int64(cfg.L1Size), -4, 1 << 62} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				c.Access(a, 4, false)
				return ""
			}()
			if want := fmt.Sprintf("beyond the reach of %d bytes", reach); !strings.Contains(msg, want) {
				t.Fatalf("assoc %d: Access(%#x) panicked with %q, want %q", assoc, a, msg, want)
			}
		}
	}
}

// TestNewRejectsUnpackableGeometry checks that New refuses, naming the
// fault, every geometry whose sets the packed records cannot hold.
func TestNewRejectsUnpackableGeometry(t *testing.T) {
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.L1Assoc = 16 }, "associativity 16 outside [1, 8]"},
		{func(c *Config) { c.L2Assoc = 0 }, "associativity 0 outside [1, 8]"},
		{func(c *Config) { c.LineSize = 24 }, "line size 24 not a power of two"},
		{func(c *Config) { c.L2Size = 3 << 10 }, "set count 24 not a power of two"},
		{func(c *Config) { c.L1Size = 16 }, "a 16-byte level holds no 32-byte line"},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			New(cfg)
			return ""
		}()
		if !strings.Contains(msg, tc.want) {
			t.Errorf("New panicked with %q, want %q", msg, tc.want)
		}
	}
}

// TestReleasedCacheIsFresh dirties a cache, releases it and checks that a
// New cache built on the recycled arrays behaves exactly as the
// reference does from empty.  The pool may drop a release (the race
// detector drops some on purpose), so the test repeats until a New has
// actually reused released arrays.
func TestReleasedCacheIsFresh(t *testing.T) {
	cfg := smallCache(4)
	reused := 0
	for i := int64(0); i < 50 && reused < 3; i++ {
		old := New(cfg)
		replay(t, old, newRefCache(cfg), 100+i, 0, 3000)
		l1, l2 := old.l1.buf, old.l2.buf
		old.Release()
		c := New(cfg)
		if c.l1.buf == l1 || c.l2.buf == l2 {
			reused++
		}
		replay(t, c, newRefCache(cfg), 200+i, 0, 3000)
		c.Release()
	}
	if reused == 0 {
		t.Fatal("no New reused a released cache's arrays")
	}
}

// TestReleasedCachePanics checks that a probe after Release cannot read
// recycled arrays.
func TestReleasedCachePanics(t *testing.T) {
	c := New(tiny())
	c.Access(0x100, 4, true)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Access after Release did not panic")
		}
	}()
	probe(c, 0x100, 4, false)
}

// TestPooledArraysOfOtherGeometryDropped checks that a New of one
// geometry never takes a released array of another.
func TestPooledArraysOfOtherGeometryDropped(t *testing.T) {
	New(smallCache(2)).Release()
	c := New(tiny())
	if len(c.l1.sets) != 8 || len(c.l2.sets) != 32 {
		t.Fatalf("tiny cache got %d L1 and %d L2 record words", len(c.l1.sets), len(c.l2.sets))
	}
	replay(t, c, newRefCache(tiny()), 7, 0, 2000)
}

// FuzzCacheMatchesReference decodes its input into a hierarchy and a
// stream of Access, HitMRU, Touch and InvalidateRange calls and holds
// the cache to the reference over it.  The first byte picks the
// associativity and whether the stream runs at the bottom of the
// address space or just below the reach; each following 4 bytes are one
// call: a kind and flags byte, a 16-bit offset into a window of 8 L2s,
// and a size byte.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := smallCache(1 << (data[0] & 3))
		span := int64(8 * cfg.L2Size)
		var lo int64
		if data[0]&4 != 0 {
			lo = cfg.Reach() - span
		}
		c, ref := New(cfg), newRefCache(cfg)
		for i := 1; i+4 <= len(data); i += 4 {
			op, off, n := data[i], int64(data[i+1])|int64(data[i+2])<<8, int(data[i+3])
			write := op&4 != 0
			var got, want [3]int64
			switch op & 3 {
			case 0: // a word or double reference through the MRU path
				size := 4 << (op >> 3 & 1)
				addr := lo + min(off&^3, span-int64(size))
				s, m1, m2 := probe(c, addr, size, write)
				got = [3]int64{s, b2i(m1), b2i(m2)}
				s, m1, m2 = ref.access(addr, size, write)
				want = [3]int64{s, b2i(m1), b2i(m2)}
			case 1: // HitMRU alone: true only where the reference hits L1
				size := 1 + n&7
				addr := lo + min(off, span-int64(size))
				if c.HitMRU(addr, size, write) {
					s, m1, m2 := ref.access(addr, size, write)
					want = [3]int64{s, b2i(m1), b2i(m2)}
				}
			case 2:
				size := 1 + n*8
				addr := lo + min(off, span-int64(size))
				got[0], want[0] = c.Touch(addr, size, write), ref.touch(addr, size, write)
			case 3:
				size := 1 + n*16
				addr := lo + min(off, span-int64(size))
				c.InvalidateRange(addr, size)
				ref.invalidateRange(addr, size)
			}
			if got != want {
				t.Fatalf("call at byte %d: got %v, want %v", i, got, want)
			}
			if c.Accesses != ref.accesses || c.L1Misses != ref.l1Misses || c.L2Misses != ref.l2Misses {
				t.Fatalf("call at byte %d: counters %d/%d/%d, want %d/%d/%d", i,
					c.Accesses, c.L1Misses, c.L2Misses, ref.accesses, ref.l1Misses, ref.l2Misses)
			}
			if a := lo + min(off, span-1); c.Contains(a) != ref.contains(a) {
				t.Fatalf("call at byte %d: Contains(%#x) = %v", i, a, c.Contains(a))
			}
		}
	})
}
