// Package mem provides the per-node physical memories of the simulated
// cluster.  Every node owns an independent copy of the shared address
// space, allocated lazily page by page; coherence protocols move real
// bytes between these copies, so applications compute correct results
// only when the protocol is correct.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Page geometry of the simulated virtual memory system.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB, the SVM coherence unit
	WordSize  = 4              // diffs compare at word granularity
)

// Addr is a simulated shared-address-space address.
type Addr = int64

// PageOf returns the page number containing addr.
func PageOf(a Addr) int64 { return a >> PageShift }

// PageBase returns the first address of page pn.
func PageBase(pn int64) Addr { return pn << PageShift }

// NodeMem is one node's physical memory: a lazily allocated array of page
// frames covering the shared address space.
type NodeMem struct {
	frames []*[PageSize]byte
	limit  Addr
}

// NewNodeMem creates a memory covering addresses [0, limit).
func NewNodeMem(limit Addr) *NodeMem {
	nPages := (limit + PageSize - 1) >> PageShift
	return &NodeMem{frames: make([]*[PageSize]byte, nPages), limit: limit}
}

// Limit reports the address-space size.
func (m *NodeMem) Limit() Addr { return m.limit }

// Frame returns the page frame for page pn, allocating it zeroed on first
// use.
func (m *NodeMem) Frame(pn int64) *[PageSize]byte {
	// The slice index carries the range check (an out-of-range or
	// negative page is an internal protocol bug and panics either way);
	// first-touch allocation is outlined.  Both keep Frame inlinable,
	// and every simulated load and store funnels through here.
	f := m.frames[pn]
	if f == nil {
		f = m.newFrame(pn)
	}
	return f
}

// framePool recycles the frames of released memories, so a sequence of
// runs does not allocate and fault in its pages again.  sync.Pool
// because concurrent runs share it.
var framePool sync.Pool

//go:noinline
func (m *NodeMem) newFrame(pn int64) *[PageSize]byte {
	f, _ := framePool.Get().(*[PageSize]byte)
	if f == nil {
		f = new([PageSize]byte)
	} else {
		clear(f[:])
	}
	m.frames[pn] = f
	return f
}

// Release returns every frame for a later memory to reuse.  The memory
// must not be used afterwards; an access panics.
func (m *NodeMem) Release() {
	for _, f := range m.frames {
		if f != nil {
			framePool.Put(f)
		}
	}
	m.frames = nil
}

// Allocated reports whether page pn has a frame (for tests).
func (m *NodeMem) Allocated(pn int64) bool {
	return pn >= 0 && pn < int64(len(m.frames)) && m.frames[pn] != nil
}

// The word and double accessors below are the data plane of every
// simulated load and store.  Each keeps a minimal hot body — one frame
// pointer load, one offset mask, one fixed-width move — and outlines
// the rare cases (first touch of a page, a double straddling a page
// boundary) so the hot body stays small.

// ReadWord loads the 32-bit word at a (must be word-aligned within one page).
func (m *NodeMem) ReadWord(a Addr) uint32 {
	f := m.frames[a>>PageShift]
	if f == nil {
		f = m.newFrame(a >> PageShift)
	}
	off := a & (PageSize - 1)
	return binary.LittleEndian.Uint32(f[off : off+4])
}

// WriteWord stores a 32-bit word at a.
func (m *NodeMem) WriteWord(a Addr, v uint32) {
	f := m.frames[a>>PageShift]
	if f == nil {
		f = m.newFrame(a >> PageShift)
	}
	off := a & (PageSize - 1)
	binary.LittleEndian.PutUint32(f[off:off+4], v)
}

// ReadU64 loads a 64-bit value; straddling a page boundary is allowed
// but slow.
func (m *NodeMem) ReadU64(a Addr) uint64 {
	f := m.frames[a>>PageShift]
	off := a & (PageSize - 1)
	if f == nil || off > PageSize-8 {
		return m.readU64Slow(a)
	}
	return binary.LittleEndian.Uint64(f[off : off+8])
}

//go:noinline
func (m *NodeMem) readU64Slow(a Addr) uint64 {
	off := a & (PageSize - 1)
	if off+8 > PageSize {
		// Assemble across the boundary.
		lo := uint64(m.ReadWord(a))
		hi := uint64(m.ReadWord(a + 4))
		return lo | hi<<32
	}
	f := m.Frame(PageOf(a))
	return binary.LittleEndian.Uint64(f[off : off+8])
}

// WriteU64 stores a 64-bit value.
func (m *NodeMem) WriteU64(a Addr, v uint64) {
	f := m.frames[a>>PageShift]
	off := a & (PageSize - 1)
	if f == nil || off > PageSize-8 {
		m.writeU64Slow(a, v)
		return
	}
	binary.LittleEndian.PutUint64(f[off:off+8], v)
}

//go:noinline
func (m *NodeMem) writeU64Slow(a Addr, v uint64) {
	off := a & (PageSize - 1)
	if off+8 > PageSize {
		m.WriteWord(a, uint32(v))
		m.WriteWord(a+4, uint32(v>>32))
		return
	}
	f := m.Frame(PageOf(a))
	binary.LittleEndian.PutUint64(f[off:off+8], v)
}

// ReadF64 loads a float64.
func (m *NodeMem) ReadF64(a Addr) float64 { return math.Float64frombits(m.ReadU64(a)) }

// WriteF64 stores a float64.
func (m *NodeMem) WriteF64(a Addr, v float64) { m.WriteU64(a, math.Float64bits(v)) }

// CopyOut copies size bytes starting at a into dst, which may span pages.
func (m *NodeMem) CopyOut(a Addr, dst []byte) {
	for len(dst) > 0 {
		pn := PageOf(a)
		off := a & (PageSize - 1)
		n := PageSize - off
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		copy(dst[:n], m.Frame(pn)[off:off+n])
		dst = dst[n:]
		a += n
	}
}

// CopyIn copies src into memory starting at a, possibly spanning pages.
func (m *NodeMem) CopyIn(a Addr, src []byte) {
	for len(src) > 0 {
		pn := PageOf(a)
		off := a & (PageSize - 1)
		n := PageSize - off
		if n > int64(len(src)) {
			n = int64(len(src))
		}
		copy(m.Frame(pn)[off:off+n], src[:n])
		src = src[n:]
		a += n
	}
}

// Arena is a simple bump allocator carving the shared address space into
// application data structures, with alignment support so allocations can
// be page- or block-aligned to control sharing granularity.
type Arena struct {
	next  Addr
	limit Addr
}

// NewArena allocates from [start, limit).
func NewArena(start, limit Addr) *Arena {
	return &Arena{next: start, limit: limit}
}

// Alloc reserves size bytes aligned to align (a power of two; 0 or 1
// means word alignment).
func (ar *Arena) Alloc(size int64, align int64) Addr {
	if align < WordSize {
		align = WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	a := (ar.next + align - 1) &^ (align - 1)
	if a+size > ar.limit {
		panic(fmt.Sprintf("mem: arena exhausted: want %d bytes at %d, limit %d", size, a, ar.limit))
	}
	ar.next = a + size
	return a
}

// AllocPage reserves size bytes starting on a fresh page.
func (ar *Arena) AllocPage(size int64) Addr { return ar.Alloc(size, PageSize) }
