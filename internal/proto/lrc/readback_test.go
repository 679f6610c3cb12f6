package lrc

import (
	"encoding/binary"
	"testing"

	"swsm/internal/core"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/proto/wdiff"
)

// uncachedRead rebuilds pg from the manager's base copy and every
// retained interval, the reconstruction ReadCoherent caches.
func uncachedRead(p *Protocol, addr int64) uint32 {
	pg := mem.PageOf(addr)
	page := *p.Env.NodeMem(p.manager(pg)).Frame(pg)
	var ivs []*interval
	for o := range p.intervals {
		for _, iv := range p.intervals[o] {
			if _, ok := iv.diffs[pg]; ok {
				ivs = append(ivs, iv)
			}
		}
	}
	sortIntervals(ivs)
	for _, iv := range ivs {
		wdiff.Apply(page[:], iv.diffs[pg])
	}
	return binary.LittleEndian.Uint32(page[addr&(mem.PageSize-1):])
}

// TestReadCoherentCacheMatchesReconstruction writes two pages from
// several processors over several lock-ordered and concurrent
// intervals, then checks every word's cached readback against an
// uncached reconstruction, and that a new interval or an InitWrite
// empties the cache.
func TestReadCoherentCacheMatchesReconstruction(t *testing.T) {
	const procs = 4
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	cfg.MemLimit = 4 << 20
	p := New(Config{Costs: proto.OriginalCosts()})
	m := core.NewMachine(cfg, p)
	a := m.AllocPage(2 * mem.PageSize)
	for w := int64(0); w < 2*mem.PageSize/4; w += 7 {
		m.InitWord(a+4*w, uint32(w))
	}
	_, err := m.Run(func(th *core.Thread) {
		me := int64(th.Proc())
		for round := int64(0); round < 3; round++ {
			// Disjoint concurrent writes, one word stripe per processor.
			for w := me; w < 2*mem.PageSize/4; w += procs * 3 {
				th.Store32(a+4*w, uint32(1000*round+w))
			}
			// A lock-ordered chain over shared words: the last writer wins.
			th.Acquire(0)
			th.Store32(a+4*round, uint32(100*round+me))
			th.Store32(a+mem.PageSize+4*round, uint32(200*round+me))
			th.Release(0)
			th.Barrier(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for addr := a; addr < a+2*mem.PageSize; addr += 4 {
		if got, want := p.ReadCoherent(addr), uncachedRead(p, addr); got != want {
			t.Fatalf("ReadCoherent(%#x) = %d, uncached reconstruction %d", addr, got, want)
		}
		if !p.rb.ok || p.rb.pg != mem.PageOf(addr) {
			t.Fatalf("readback of %#x not cached after every node finalized", addr)
		}
	}

	// InitWrite changes the base copy under the cached page.
	free := a + 4*(procs+1) // in no processor's stripe, not a lock word
	p.ReadCoherent(free)
	p.InitWrite(free, 0xfeed)
	if p.rb.ok {
		t.Fatal("InitWrite left the readback cache valid")
	}
	if got, want := p.ReadCoherent(free), uncachedRead(p, free); got != want || got != 0xfeed {
		t.Fatalf("after InitWrite: ReadCoherent = %#x, uncached %#x, want 0xfeed", got, want)
	}

	// A new interval overwrites the word on top of the base copy.
	p.ReadCoherent(free)
	p.addInterval(&interval{
		owner: 1, seq: int32(len(p.intervals[1]) + 1), vcSum: 1 << 40,
		diffs: map[int64][]wdiff.Word{
			mem.PageOf(free): {{Off: uint16(free & (mem.PageSize - 1) / 4), Val: 0xbeef}},
		},
	})
	if p.rb.ok {
		t.Fatal("a new interval left the readback cache valid")
	}
	if got, want := p.ReadCoherent(free), uncachedRead(p, free); got != want || got != 0xbeef {
		t.Fatalf("after a new interval: ReadCoherent = %#x, uncached %#x, want 0xbeef", got, want)
	}
}
