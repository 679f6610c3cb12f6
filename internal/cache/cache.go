// Package cache models the node memory hierarchy of the simulated
// cluster: a two-level, set-associative, write-back cache modeled on the
// PentiumPro systems the paper's real implementation used, with LRU
// replacement and explicit invalidation so protocol activity (twinning,
// diffing, page copies) pollutes the cache exactly as in the paper's
// simulator.
//
// Each set is one packed record with 16-bit tags, which bounds the
// address space a hierarchy models (Config.Reach): 0xFFFF times the
// smaller level's way size, 256 MB less 4 KB for DefaultConfig, far above
// the 9 MB the largest harness problem needs.  New panics on a geometry
// the records cannot hold, and a probe beyond the reach panics rather
// than alias two lines.
package cache

import (
	"fmt"
	"math"
	"math/bits"
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

// level is one set-associative array of packed set records.  A set's
// record is its tag words followed by one meta word, so a probe reads
// one record: 16 B per set up to 4 ways, a quarter of a host cache line,
// and 24 B at 8 ways:
//
//   - A tag word holds four ways in 16-bit lanes: way i is lane i%4 of
//     word i/4.  A way's tag is its line number's bits above the set
//     index plus one, and 0 marks an invalid way.  The probe matches all
//     four lanes at once with a SWAR zero-lane test, without a loop.
//   - The meta word holds the set's exact LRU order as a rank per way in
//     4-bit lanes (0 = most recently used) in bits 0-31, and the dirty
//     mask in bits 32-39.  The ranks are stored XORed with the identity
//     order, so a zeroed record ranks way i at i.
//
// A zeroed array is therefore an empty level.  A hit or fill moves its
// way to rank 0, so the ranks order a set's valid ways by last use
// exactly as a per-way LRU tick would; invalid ways keep a rank only so
// the ranks stay a permutation.  An invalid way's dirty bit is always
// clear.  A one-entry MRU filter short-circuits the very
// common case of consecutive references to the same line (sequential
// word accesses within a 32-byte line): that line is already its set's
// most recently used way, so a filtered hit only sets its dirty bit.
type level struct {
	sets     []uint64  // per set: tag words, then the meta word
	buf      *[]uint64 // holds sets for the pool on release
	stride   int       // words per set record
	setMask  int64
	setBits  uint
	lineBits uint
	ident    uint32 // rank lanes holding their way's index
	ones     uint32 // 1 in every rank lane in use
	oldest   uint32 // the LRU rank, ways-1, in every rank lane in use
	last     uint64 // high bit of every tag lane in use in the last tag word
	mruIdx   int32  // meta word of the MRU line's set
	mruBit   uint64 // the MRU line's dirty bit in that word
	mruTag   int64  // line number + 1 of the MRU line, 0 when the filter is empty
}

const (
	maxAssoc = 8      // ways a meta word ranks and marks dirty
	tagLimit = 0xFFFF // tags are 16-bit lanes, and 0 marks an invalid way
	lanes16  = 0x0001_0001_0001_0001
	low16    = 0x7FFF * lanes16
	dirtyAt  = 32 // bit of way 0's dirty flag in the meta word
)

// zeroLanes16 returns x with the high bit of every zero 16-bit lane
// set and every other bit clear.
func zeroLanes16(x uint64) uint64 {
	return ^((x&low16 + low16) | x | low16)
}

// geometry resolves one level's shape, panicking on one the packed set
// records cannot represent.
func geometry(size, assoc, lineSize int) (nSets, ways int, setBits, lineBits uint) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineSize))
	}
	if assoc < 1 || assoc > maxAssoc {
		panic(fmt.Sprintf("cache: associativity %d outside [1, %d]", assoc, maxAssoc))
	}
	nLines := size / lineSize
	if nLines < 1 {
		panic(fmt.Sprintf("cache: a %d-byte level holds no %d-byte line", size, lineSize))
	}
	ways = min(assoc, nLines)
	nSets = nLines / ways
	// nSets must be a power of two for masking.
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nSets))
	}
	for 1<<setBits < nSets {
		setBits++
	}
	for 1<<lineBits < lineSize {
		lineBits++
	}
	return nSets, ways, setBits, lineBits
}

// reach is the address space a level of this shape tells apart: every
// address below it has a tag that fits a 16-bit lane.
func reach(setBits, lineBits uint) int64 {
	if setBits+lineBits >= 47 {
		return math.MaxInt64
	}
	return tagLimit << (setBits + lineBits)
}

// Reach is the address space the hierarchy models: addresses in
// [0, Reach) map to distinct lines, and a probe of any other address
// panics rather than alias two lines.  It is 0xFFFF times the smaller
// level's way size, 256 MB less 4 KB for DefaultConfig (its L1 bounds
// it).  New panics on a geometry whose sets cannot be packed.
func (cfg Config) Reach() int64 {
	_, _, s1, b1 := geometry(cfg.L1Size, cfg.L1Assoc, cfg.LineSize)
	_, _, s2, b2 := geometry(cfg.L2Size, cfg.L2Assoc, cfg.LineSize)
	return min(reach(s1, b1), reach(s2, b2))
}

// linePools recycles released levels' arrays, one pool per level, so a
// sequence of runs neither allocates nor faults in each node's L1 and
// L2 records again.  sync.Pool because concurrent runs share it.
var linePools [2]sync.Pool

func (l *level) init(size, assoc, lineSize int, pool *sync.Pool) {
	nSets, ways, setBits, lineBits := geometry(size, assoc, lineSize)
	tagWords := (ways + 3) / 4
	n := nSets * (tagWords + 1)
	b, _ := pool.Get().(*[]uint64)
	if b == nil || len(*b) != n {
		// A pooled array of another length is left to the collector.
		s := make([]uint64, n)
		b = &s
	} else {
		clear(*b)
	}
	*l = level{
		sets:     *b,
		buf:      b,
		stride:   tagWords + 1,
		setMask:  int64(nSets - 1),
		setBits:  setBits,
		lineBits: lineBits,
		ones:     0x1111_1111 >> (4 * (maxAssoc - ways)),
		last:     0x8000 * lanes16 >> (16 * (tagWords*4 - ways)),
	}
	l.ident = 0x7654_3210 & (l.ones * 0xF)
	l.oldest = uint32(ways-1) * l.ones
}

// release hands the level's array to pool and empties the level, so a
// later probe panics instead of reading another run's lines.
func (l *level) release(pool *sync.Pool) {
	if l.buf != nil {
		pool.Put(l.buf)
	}
	*l = level{}
}

// locate returns the index of the set record holding line and the
// line's tag there, panicking when line lies beyond the level's reach.
func (l *level) locate(line int64) (base int, tag uint64) {
	hi := uint64(line >> (l.setBits & 63))
	if hi >= tagLimit {
		panic(reachError{line, l.setBits, l.lineBits})
	}
	return int(line&l.setMask) * l.stride, hi + 1
}

// reachError is the panic of a probe beyond a level's reach.
type reachError struct {
	line              int64
	setBits, lineBits uint
}

func (e reachError) Error() string {
	return fmt.Sprintf("cache: address %#x beyond the reach of %d bytes", e.line<<e.lineBits, reach(e.setBits, e.lineBits))
}

// find returns the way among a set's tag words holding tag.
func find(tags []uint64, tag uint64) (way uint, ok bool) {
	b := tag * lanes16
	for j, w := range tags {
		if z := zeroLanes16(w ^ b); z != 0 {
			return uint(j)<<2 | uint(bits.TrailingZeros64(z))>>4, true
		}
	}
	return 0, false
}

// promote returns meta with way moved to the front of the set's LRU
// order: every way ranked before it moves back one place.
func (l *level) promote(meta uint64, way uint) uint64 {
	rk := uint32(meta) ^ l.ident
	sh := way & 7 << 2
	r := rk >> sh & 0xF
	// A lane x <= r has its high bit set in 8 + r - x, and no lane
	// borrows from its neighbour for ranks in [0, 7].  The way's own
	// lane, x = r, then goes to 0.
	h := l.ones << 3
	rk += ((r*l.ones | h) - rk) & h >> 3
	rk &^= 0xF << sh
	return meta&^0xFFFF_FFFF | uint64(rk^l.ident)
}

// access probes the level; on miss it installs the line, returning the
// victim's dirtiness.  hit reports whether the tag was present.
func (l *level) access(addr int64, write bool) (hit, victimDirty bool) {
	var w uint64
	if write {
		w = 1
	}
	line := addr >> (l.lineBits & 63)
	if line+1 == l.mruTag {
		l.sets[l.mruIdx] |= w * l.mruBit
		return true, false
	}
	base, tag := l.locate(line)
	rec := l.sets[base : base+l.stride]
	tags, meta := rec[:len(rec)-1], rec[len(rec)-1]
	way, hit := find(tags, tag)
	if !hit {
		way = l.victim(tags, meta)
		bit := uint64(1) << (dirtyAt + way&7)
		victimDirty = meta&bit != 0
		meta &^= bit
		i, sh := way>>2, way&3<<4
		tags[i] = tags[i]&^(0xFFFF<<sh) | tag<<sh
	}
	bit := uint64(1) << (dirtyAt + way&7)
	rec[len(rec)-1] = l.promote(meta, way) | w*bit
	l.mruIdx, l.mruBit, l.mruTag = int32(base+len(rec)-1), bit, line+1
	return hit, victimDirty
}

// victim picks the way a miss in a set replaces, exactly as the paper's
// simulator did: the last invalid way if any, else the least recently
// used one.
func (l *level) victim(tags []uint64, meta uint64) uint {
	mask := l.last
	for j := len(tags) - 1; j >= 0; j-- {
		if z := zeroLanes16(tags[j]) & mask; z != 0 {
			return uint(j)<<2 | uint(63-bits.LeadingZeros64(z))>>4
		}
		mask = 0x8000 * lanes16
	}
	// The way ranked ways-1 is the lane where rank XOR ways-1 is zero;
	// adding 7 sets the high bit of every other lane.
	x := uint32(meta) ^ l.ident ^ l.oldest
	return uint(bits.TrailingZeros32(^(x+7*l.ones)&(l.ones<<3))) >> 2
}

// invalidate drops the line containing addr if present.
func (l *level) invalidate(addr int64) {
	line := addr >> (l.lineBits & 63)
	base, tag := l.locate(line)
	rec := l.sets[base : base+l.stride]
	way, ok := find(rec[:len(rec)-1], tag)
	if !ok {
		return
	}
	rec[way>>2] &^= 0xFFFF << (way & 3 << 4)
	rec[len(rec)-1] &^= 1 << (dirtyAt + way&7)
	if l.mruTag == line+1 {
		l.mruTag = 0
	}
}

// Cache is one node's two-level hierarchy.  The levels are embedded by
// value: probing goes straight from the Cache pointer to the set
// records with no intermediate allocation.
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
// bit on a write and reports true, for no stall.  No set's LRU order
// changes, which is exact: the MRU line is already its set's most
// recently used way.  On false, call Access.
func (c *Cache) HitMRU(addr int64, size int, write bool) bool {
	l := &c.l1
	tag := addr>>l.lineBits + 1
	if tag != l.mruTag || (addr+int64(size)-1)>>l.lineBits+1 != tag {
		return false
	}
	c.Accesses++
	if write {
		l.sets[l.mruIdx] |= l.mruBit
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
	base, tag := l.locate(addr >> (l.lineBits & 63))
	_, ok := find(l.sets[base:base+l.stride-1], tag)
	return ok
}
