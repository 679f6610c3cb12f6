// Package cache models the node memory hierarchy of the simulated
// cluster: a two-level, set-associative, write-back cache modeled on the
// PentiumPro systems the paper's real implementation used, with LRU
// replacement and explicit invalidation so protocol activity (twinning,
// diffing, page copies) pollutes the cache exactly as in the paper's
// simulator.
package cache

import (
	"fmt"
	"sync"
)

// Config describes the hierarchy.  All sizes in bytes; latencies in
// processor cycles.  The L1 hit cost is folded into the 1-IPC model, so
// only L2 hits and memory accesses add stall cycles.
type Config struct {
	LineSize int // bytes per cache line (both levels)

	L1Size  int
	L1Assoc int

	L2Size  int
	L2Assoc int

	L2HitCycles     int64 // stall on L1 miss / L2 hit
	MemCycles       int64 // stall on L2 miss
	WritebackCycles int64 // extra stall when a dirty L2 victim is evicted
}

// DefaultConfig is the P6-like hierarchy used throughout the study:
// 32-byte lines, 16 KB 4-way L1, 512 KB 4-way L2, 10-cycle L2 hit,
// 60-cycle memory access at 200 MHz.
func DefaultConfig() Config {
	return Config{
		LineSize:        32,
		L1Size:          16 << 10,
		L1Assoc:         4,
		L2Size:          512 << 10,
		L2Assoc:         4,
		L2HitCycles:     10,
		MemCycles:       60,
		WritebackCycles: 30,
	}
}

// level is one set-associative array, stored structure-of-arrays: the
// hit scan compares against a dense row of tags (one 64-byte line holds
// a whole 8-way set), and the LRU/dirty metadata — packed as tick<<1 |
// dirty — is touched only on the hit way or during victim selection.
// Validity is encoded in the tag itself: a way's tag is its line number
// plus one, and 0 marks an invalid way, so a zeroed array is an empty
// level.  The set index is taken from the line number itself.  A
// one-entry MRU filter short-circuits the very common case of
// consecutive references to the same line (sequential word accesses
// within a 32-byte line) without perturbing the LRU bookkeeping: the
// filtered path performs exactly the tick/lru/dirty updates the full
// probe would.
type level struct {
	tags     []int64  // per line: line number + 1, or 0 when invalid
	meta     []uint64 // per line: lru tick<<1 | dirty bit
	buf      *lines   // holds tags and meta for the pool on release
	assoc    int
	setMask  int64
	lineBits uint
	tick     uint64
	mruIdx   int32
	mruTag   int64 // 0 when the filter is empty
}

// lines holds one level's arrays while they wait in a pool.
type lines struct {
	tags []int64
	meta []uint64
}

// linePools recycles released levels' arrays, one pool per level, so a
// sequence of runs neither allocates nor faults in each node's 264 KB of
// L1 and L2 arrays again.  sync.Pool because concurrent runs share it.
var linePools [2]sync.Pool

func (l *level) init(size, assoc, lineSize int, pool *sync.Pool) {
	nLines := size / lineSize
	if nLines < assoc {
		assoc = nLines
	}
	nSets := nLines / assoc
	if nSets == 0 {
		nSets = 1
	}
	// nSets must be a power of two for masking.
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	n := nSets * assoc
	b, _ := pool.Get().(*lines)
	if b == nil || len(b.tags) != n {
		// A pooled array of another geometry is left to the collector.
		b = &lines{tags: make([]int64, n), meta: make([]uint64, n)}
	} else {
		// Zero tags empty the level.  meta is left as it is: an invalid
		// way's meta is never read, and installing a line rewrites it.
		clear(b.tags)
	}
	l.tags, l.meta, l.buf = b.tags, b.meta, b
	l.assoc = assoc
	l.setMask = int64(nSets - 1)
	l.lineBits = lineBits
}

// release hands the level's arrays to pool and empties the level, so a
// later probe panics instead of reading another run's lines.
func (l *level) release(pool *sync.Pool) {
	if l.buf != nil {
		pool.Put(l.buf)
	}
	*l = level{}
}

// access probes the level; on miss it installs the line, returning the
// victim's dirtiness.  hit reports whether the tag was present.
func (l *level) access(addr int64, write bool) (hit, victimDirty bool) {
	l.tick++
	var w uint64
	if write {
		w = 1
	}
	line := addr >> l.lineBits
	tag := line + 1
	if tag == l.mruTag {
		i := l.mruIdx
		l.meta[i] = l.tick<<1 | l.meta[i]&1 | w
		return true, false
	}
	base := int(line&l.setMask) * l.assoc
	tags := l.tags[base : base+l.assoc]
	for i := range tags {
		if tags[i] == tag {
			idx := base + i
			l.meta[idx] = l.tick<<1 | l.meta[idx]&1 | w
			l.mruIdx, l.mruTag = int32(idx), tag
			return true, false
		}
	}
	// Miss: pick the victim exactly as the paper's simulator did — the
	// last invalid way if any, else the first way with the minimum LRU
	// tick (strict < keeps earlier ways on ties).
	victim := 0
	vFree := tags[0] == 0
	vLRU := l.meta[base] >> 1
	for i := 1; i < len(tags); i++ {
		if tags[i] == 0 {
			victim, vFree = i, true
		} else if !vFree {
			if lru := l.meta[base+i] >> 1; lru < vLRU {
				victim, vLRU = i, lru
			}
		}
	}
	idx := base + victim
	victimDirty = tags[victim] != 0 && l.meta[idx]&1 != 0
	tags[victim] = tag
	l.meta[idx] = l.tick<<1 | w
	l.mruIdx, l.mruTag = int32(idx), tag
	return false, victimDirty
}

// invalidate drops the line containing addr if present, reporting whether
// it was dirty.
func (l *level) invalidate(addr int64) (present, dirty bool) {
	line := addr >> l.lineBits
	tag := line + 1
	base := int(line&l.setMask) * l.assoc
	tags := l.tags[base : base+l.assoc]
	for i := range tags {
		if tags[i] == tag {
			idx := base + i
			dirty = l.meta[idx]&1 != 0
			tags[i] = 0
			l.meta[idx] = 0
			if l.mruTag == tag {
				l.mruTag = 0
			}
			return true, dirty
		}
	}
	return false, false
}

// Cache is one node's two-level hierarchy.  The levels are embedded by
// value: probing goes straight from the Cache pointer to the flat line
// arrays with no intermediate allocation.
type Cache struct {
	cfg Config
	l1  level
	l2  level

	// Accumulated counters.
	Accesses int64
	L1Misses int64
	L2Misses int64
}

// New builds an empty hierarchy from the config, reusing the arrays of
// a released cache of the same geometry when one is pooled.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg}
	c.l1.init(cfg.L1Size, cfg.L1Assoc, cfg.LineSize, &linePools[0])
	c.l2.init(cfg.L2Size, cfg.L2Assoc, cfg.LineSize, &linePools[1])
	return c
}

// Release hands the cache's arrays back for a later New to reuse.  The
// cache must not be probed afterwards; a probe panics.
func (c *Cache) Release() {
	c.l1.release(&linePools[0])
	c.l2.release(&linePools[1])
}

// LineSize reports the configured line size.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// HitMRU is Access's fast path for a reference lying wholly in the L1's
// most recently used line: it counts the access, sets the line's dirty
// bit on a write and reports true, for no stall.  It leaves the level's
// tick alone, which is exact: the MRU line already holds the newest
// tick, so no set's LRU order changes.  On false, call Access.
func (c *Cache) HitMRU(addr int64, size int, write bool) bool {
	l := &c.l1
	tag := addr>>l.lineBits + 1
	if tag != l.mruTag || (addr+int64(size)-1)>>l.lineBits+1 != tag {
		return false
	}
	c.Accesses++
	if write {
		l.meta[l.mruIdx] |= 1
	}
	return true
}

// Access simulates one data reference of `size` bytes at addr and returns
// the stall cycles beyond the 1-IPC instruction cost, plus miss flags for
// the first line touched.  References spanning multiple lines probe each
// line (the common case, aligned word/double accesses, touches one).
func (c *Cache) Access(addr int64, size int, write bool) (stall int64, l1Miss, l2Miss bool) {
	lineSize := int64(c.cfg.LineSize)
	first := addr &^ (lineSize - 1)
	last := (addr + int64(size) - 1) &^ (lineSize - 1)
	for a := first; a <= last; a += lineSize {
		s, m1, m2 := c.accessLine(a, write)
		stall += s
		if a == first {
			l1Miss, l2Miss = m1, m2
		}
	}
	return stall, l1Miss, l2Miss
}

func (c *Cache) accessLine(addr int64, write bool) (stall int64, l1Miss, l2Miss bool) {
	c.Accesses++
	hit1, _ := c.l1.access(addr, write)
	if hit1 {
		return 0, false, false
	}
	c.L1Misses++
	hit2, victimDirty := c.l2.access(addr, write)
	if hit2 {
		return c.cfg.L2HitCycles, true, false
	}
	c.L2Misses++
	stall = c.cfg.MemCycles
	if victimDirty {
		stall += c.cfg.WritebackCycles
	}
	return stall, true, true
}

// Touch runs a block of protocol data movement (page copy, twin create,
// diff scan) through the hierarchy to model cache pollution, returning the
// total stall cycles.  The block is touched line by line.
func (c *Cache) Touch(addr int64, size int, write bool) (stall int64) {
	lineSize := int64(c.cfg.LineSize)
	end := addr + int64(size)
	for a := addr &^ (lineSize - 1); a < end; a += lineSize {
		s, _, _ := c.accessLine(a, write)
		stall += s
	}
	return stall
}

// InvalidateRange drops all lines overlapping [addr, addr+size) from both
// levels, as a coherence invalidation (page or block) must.
func (c *Cache) InvalidateRange(addr int64, size int) {
	lineSize := int64(c.cfg.LineSize)
	end := addr + int64(size)
	for a := addr &^ (lineSize - 1); a < end; a += lineSize {
		c.l1.invalidate(a)
		c.l2.invalidate(a)
	}
}

// Contains reports whether addr is present in either level (for tests).
func (c *Cache) Contains(addr int64) bool {
	return c.l1.contains(addr) || c.l2.contains(addr)
}

func (l *level) contains(addr int64) bool {
	line := addr >> l.lineBits
	tag := line + 1
	base := int(line&l.setMask) * l.assoc
	for _, t := range l.tags[base : base+l.assoc] {
		if t == tag {
			return true
		}
	}
	return false
}
