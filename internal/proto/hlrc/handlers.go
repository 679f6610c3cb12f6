package hlrc

import (
	"swsm/internal/comm"
	"swsm/internal/proto"
	"swsm/internal/proto/wdiff"
	"swsm/internal/sim"
	"swsm/internal/stats"
)

// Data message payloads.

type pageReq struct {
	page      int64
	requester int
}

type diffMsg struct {
	page  int64
	from  int
	words []wdiff.Word
}

// handlePageReq serves a whole coherence-unit fetch from the home copy.
func (p *Protocol) handlePageReq(h proto.HandlerCtx, req pageReq) int64 {
	homeNode := h.Node()
	if p.home(req.page) != homeNode {
		panic("hlrc: page request arrived at non-home")
	}
	pg := req.page
	_, span := p.cu(pg)
	data := p.CopyUnit(homeNode, pg, span)
	dst := req.requester
	if p.pstats != nil {
		p.noteFetch(pg, dst)
	}
	h.Send(&comm.Message{
		Src: homeNode, Dst: dst, Size: int64(len(data)) + 16,
		OnDeliver: func(now sim.Time) {
			// The NI deposits the unit directly into the requester's
			// memory; the faulting thread finishes the mapping when it
			// wakes.  The staging buffer's lifetime ends here, so it
			// goes back on the free list.
			p.Env.NodeMem(dst).CopyIn(p.UnitBase(pg), data)
			p.FreeBuf(data)
			p.Env.WakeThread(dst)
		},
	})
	return p.Costs.HandlerBase
}

// handleDiff applies an incoming diff to the home copy and acks the
// writer.
func (p *Protocol) handleDiff(h proto.HandlerCtx, d diffMsg) int64 {
	homeNode := h.Node()
	if p.home(d.page) != homeNode {
		panic("hlrc: diff arrived at non-home")
	}
	// Patch the home copy through the protocol scratch buffer (the
	// handler runs to completion without yielding, so the scratch is
	// exclusively ours), then recycle the message's diff words.
	_, span := p.cu(d.page)
	unit := p.unitScratch[:span*p.UnitBytes]
	p.Env.NodeMem(homeNode).CopyOut(p.UnitBase(d.page), unit)
	wdiff.Apply(unit, d.words)
	p.Env.NodeMem(homeNode).CopyIn(p.UnitBase(d.page), unit)
	if p.pstats != nil {
		p.noteDiff(d.page, d.from, int64(len(d.words)))
	}
	st := p.Env.Metrics()
	st.Inc(homeNode, stats.DiffsApplied, 1)
	body := p.Costs.HandlerBase +
		proto.WordCost(p.Costs.DiffApplyQ4, int64(len(d.words)))
	body += p.Env.CacheTouch(homeNode, p.UnitBase(d.page), int(span*p.UnitBytes), true)
	st.AddDiff(homeNode, body-p.Costs.HandlerBase)
	p.Tr.DiffApply(p.Env.Now(), int32(homeNode), d.page, int64(len(d.words)))
	p.freeDiffBuf(d.words)
	from := d.from
	a := &p.acks[from]
	h.Send(&comm.Message{
		Src: homeNode, Dst: from, Size: 8,
		OnDeliver: func(now sim.Time) {
			a.pending--
			if a.pending < 0 {
				panic("hlrc: ack underflow")
			}
			if a.waiting && a.pending == 0 {
				p.Env.WakeThread(from)
			}
		},
	})
	return body
}

// ReadCoherent reads the home copy (valid after Finalize on all nodes).
func (p *Protocol) ReadCoherent(addr int64) uint32 {
	return p.Env.NodeMem(p.home(p.unitOf(addr))).ReadWord(addr)
}

// InitWrite initializes the home copy before the parallel phase.
func (p *Protocol) InitWrite(addr int64, v uint32) {
	p.Env.NodeMem(p.home(p.unitOf(addr))).WriteWord(addr, v)
}
