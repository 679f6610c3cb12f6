package lrc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"swsm/internal/comm"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/proto/wdiff"
	"swsm/internal/sim"
)

// Data message payloads.

type baseReq struct {
	page      int64
	requester int
}

type diffReq struct {
	page      int64
	requester int
	from, to  int32
	deliver   func([]*interval)
}

// Handle serves the base and diff requests of faulting nodes.
func (p policy) Handle(h proto.HandlerCtx, m *comm.Message) int64 {
	switch m.Kind {
	case msgBaseReq:
		return p.handleBaseReq(h, m.Payload.(baseReq))
	case msgDiffReq:
		return p.handleDiffReq(h, m.Payload.(diffReq))
	}
	panic(fmt.Sprintf("lrc: unknown message kind %d", m.Kind))
}

// handleBaseReq serves a full base copy of the page from the manager.
func (p *Protocol) handleBaseReq(h proto.HandlerCtx, req baseReq) int64 {
	me := h.Node()
	frame := p.Env.NodeMem(me).Frame(req.page)
	data := make([]byte, mem.PageSize)
	copy(data, frame[:])
	pg, dst := req.page, req.requester
	toNS := p.nodes[dst]
	h.Send(&comm.Message{
		Src: me, Dst: dst, Size: mem.PageSize + 16,
		OnDeliver: func(now sim.Time) {
			tf := p.Env.NodeMem(dst).Frame(pg)
			copy(tf[:], data)
			toNS.faultWait--
			if toNS.faultWait == 0 {
				p.Env.WakeThread(dst)
			}
		},
	})
	return p.Costs.HandlerBase
}

// handleDiffReq serves the retained diffs of intervals [from, to] of
// this writer that cover the page.
func (p *Protocol) handleDiffReq(h proto.HandlerCtx, req diffReq) int64 {
	me := h.Node()
	var ivs []*interval
	var bytes int64 = 16
	items := int64(0)
	for s := req.from; s <= req.to; s++ {
		iv := p.intervals[me][s-1]
		if d, ok := iv.diffs[req.page]; ok {
			ivs = append(ivs, iv)
			bytes += 16 + int64(len(d))*8
			items++
		}
	}
	dst := req.requester
	toNS := p.nodes[dst]
	deliver := req.deliver
	h.Send(&comm.Message{
		Src: me, Dst: dst, Size: bytes,
		OnDeliver: func(now sim.Time) {
			deliver(ivs)
			toNS.faultWait--
			if toNS.faultWait == 0 {
				p.Env.WakeThread(dst)
			}
		},
	})
	return p.Costs.HandlerBase + p.Costs.HandlerPerItem*items
}

// readback caches the page ReadCoherent reconstructed last, so a
// verification pass that reads a page word by word rebuilds it once.
// The cache fills only after every node has run Finalize — until then
// threads still write their frames, and the manager's frame is one of
// them — and anything that changes the inputs of a reconstruction
// afterwards empties it: a new interval, InitWrite and AssignHome.
type readback struct {
	ok   bool
	pg   int64
	page [mem.PageSize]byte
	ivs  []*interval // reconstruction scratch
}

// Finalize closes the node's last interval and counts the node as done.
func (p *Protocol) Finalize(th proto.Thread) {
	p.Core.Finalize(th)
	p.finalized++
}

// ReadCoherent reconstructs the authoritative value: the manager's base
// copy with every interval's diffs applied in happened-before order.
func (p *Protocol) ReadCoherent(addr int64) uint32 {
	pg := mem.PageOf(addr)
	rb := &p.rb
	if !rb.ok || rb.pg != pg {
		p.reconstruct(pg)
		rb.pg, rb.ok = pg, p.finalized == p.NProcs
	}
	off := addr & (mem.PageSize - 1)
	return binary.LittleEndian.Uint32(rb.page[off:])
}

// reconstruct rebuilds page pg into the readback buffer.
func (p *Protocol) reconstruct(pg int64) {
	rb := &p.rb
	frame := p.Env.NodeMem(p.manager(pg)).Frame(pg)
	rb.page = *frame
	ivs := rb.ivs[:0]
	for o := 0; o < p.NProcs; o++ {
		for _, iv := range p.intervals[o] {
			if _, ok := iv.diffs[pg]; ok {
				ivs = append(ivs, iv)
			}
		}
	}
	sortIntervals(ivs)
	for _, iv := range ivs {
		wdiff.Apply(rb.page[:], iv.diffs[pg])
	}
	rb.ivs = ivs
}

// InitWrite seeds the manager's base copy.
func (p *Protocol) InitWrite(addr int64, v uint32) {
	p.rb.ok = false
	p.Env.NodeMem(p.manager(mem.PageOf(addr))).WriteWord(addr, v)
}

// sortIntervals orders intervals in a linear extension of
// happened-before: componentwise-smaller vector clocks have strictly
// smaller sums, so vc-sum order respects causality; ties (concurrent
// intervals, which data-race-free programs keep word-disjoint) break
// deterministically by owner and sequence.
func sortIntervals(ivs []*interval) {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].vcSum != ivs[j].vcSum {
			return ivs[i].vcSum < ivs[j].vcSum
		}
		if ivs[i].owner != ivs[j].owner {
			return ivs[i].owner < ivs[j].owner
		}
		return ivs[i].seq < ivs[j].seq
	})
}
