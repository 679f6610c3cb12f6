package comm

import (
	"fmt"

	"swsm/internal/fault"
	"swsm/internal/sim"
)

// ReliableNetwork wraps a Network with the transport machinery that lets
// the protocols survive an unreliable fabric: per-pair sequence numbers,
// cumulative acks, timeout-driven retransmission with capped exponential
// backoff, duplicate suppression and an in-order reorder buffer at the
// receiver.  The fault plane (internal/fault) decides which wire
// transmissions are dropped, duplicated or delayed; this layer turns
// those decisions into retransmit/ack traffic that consumes real
// simulated network resources, so reliability has a measurable
// performance price.
//
// Guarantees toward the protocol layer (which is what lets the three
// protocols run unmodified): every logical message is delivered exactly
// once, and messages on the same directed (src, dst) pair are delivered
// in send order — the same contract the plain Network provides — only
// with added, bounded delivery jitter.
//
// With no active fault injection, Send delegates straight to the wrapped
// Network: the zero-fault fast path is byte-for-byte the plain path and
// produces cycle-identical simulations.
type ReliableNetwork struct {
	nw  *Network
	eng *sim.Engine
	inj *fault.Injector
	p   ReliableParams
	n   int
	bw  *sim.Bandwidth // rate-only copy of the I/O bus, for RTO estimation

	active bool
	send   []sendChan
	recv   []recvChan

	// Free lists: a frame or pendingMsg is reused once no live event
	// refers to it, so the steady state allocates neither.
	freeFrames  []*frame
	freePending []*pendingMsg

	// Per-node counters (indexed by the node that performed the action).
	retransmits []int64 // retransmissions sent by node i
	acks        []int64 // acks sent by node i
	drops       []int64 // transmissions from node i lost on the wire
	dups        []int64 // duplicate frames suppressed at node i
}

// ReliableParams tune the reliable transport.
type ReliableParams struct {
	// RTOMin floors the first retransmission timeout (cycles).
	RTOMin sim.Time
	// RTOCap ceils the exponential backoff.
	RTOCap sim.Time
	// MaxAttempts bounds transmissions per logical message; exhausting
	// it fails the simulation (an unreachable node).
	MaxAttempts int
	// AckBytes is the ack payload size on the wire (plus HeaderBytes).
	AckBytes int64
	// SeqBytes is the per-frame sequencing overhead added to every
	// reliable data frame on the wire.
	SeqBytes int64
}

// DefaultReliableParams returns the transport defaults: an 8-byte
// sequence header, 8-byte acks, a 4000-cycle (20 us at 200 MHz) RTO
// floor and a 1 M-cycle backoff cap over at most 30 attempts.
func DefaultReliableParams() ReliableParams {
	return ReliableParams{
		RTOMin:      4000,
		RTOCap:      1 << 20,
		MaxAttempts: 30,
		AckBytes:    8,
		SeqBytes:    8,
	}
}

// sendChan is the sender half of one directed (src, dst) pair.
type sendChan struct {
	nextSeq int64
	ackedTo int64 // every seq < ackedTo is acknowledged
	// inflight[i] is the message at seq ackedTo+i: acks are cumulative,
	// so the unacknowledged messages are exactly [ackedTo, nextSeq).
	inflight []*pendingMsg
}

// recvChan is the receiver half: next expected sequence number plus the
// reorder buffer holding out-of-order arrivals.
type recvChan struct {
	next int64
	buf  map[int64]*Message
}

// pendingMsg tracks one unacknowledged logical message.  It is also the
// receiver of its own retransmission timer and deferred-transmit events
// (see HandleEvent): each arms a new generation, and an ack bumps it
// again, so an event whose generation is stale fires as a no-op.  The
// event queue has no removal, so this is how a timer is cancelled.
type pendingMsg struct {
	rn       *ReliableNetwork
	m        *Message
	seq      int64
	attempts int
	rto      sim.Time
	gen      int64
}

// pendingMsg event ops, in the low bit of the event arg above the
// generation.
const (
	opTimeout  = 0
	opTransmit = 1
)

// arm schedules op on pm at time at under a fresh generation.
func (pm *pendingMsg) arm(at sim.Time, op int64) {
	pm.gen++
	pm.rn.eng.AtHandler(at, pm, pm.gen<<1|op)
}

// HandleEvent runs a timer or deferred transmission armed by arm,
// unless an ack or a later arm has superseded it.
func (pm *pendingMsg) HandleEvent(now sim.Time, arg int64) {
	if arg>>1 != pm.gen {
		return
	}
	if arg&1 == opTimeout {
		pm.rn.timeout(pm)
	} else {
		pm.rn.transmit(pm)
	}
}

// frame is one wire transmission of the transport: a data frame
// carrying logical message m at sequence seq, or an ack (m == nil)
// covering every seq <= seq of its pair.  The frame's own Message is
// what travels the inner network; its frame pointer routes delivery
// back here, so no closure is built per frame.  Frames are recycled
// after delivery and after a wire drop.
type frame struct {
	Message
	rn    *ReliableNetwork
	m     *Message
	seq   int64
	delay int64 // injected delay still to wait out at the destination
}

// HandleEvent re-runs a frame's arrival once an injected delay or the
// receiver's pause window has passed.
func (f *frame) HandleEvent(now sim.Time, arg int64) { f.rn.land(f) }

// NewReliableNetwork wraps nw in the reliable transport driven by spec.
func NewReliableNetwork(nw *Network, spec fault.Spec, p ReliableParams) *ReliableNetwork {
	n := nw.NumNodes()
	if p.MaxAttempts <= 0 || p.RTOMin <= 0 {
		panic(fmt.Sprintf("comm: invalid reliable params %+v", p))
	}
	rn := &ReliableNetwork{
		nw:          nw,
		eng:         nw.eng,
		inj:         fault.NewInjector(spec, n),
		p:           p,
		n:           n,
		bw:          sim.NewBandwidth("rto-est", nw.p.IOBusBytesNum, nw.p.IOBusBytesDen),
		active:      spec.Active(),
		send:        make([]sendChan, n*n),
		recv:        make([]recvChan, n*n),
		retransmits: make([]int64, n),
		acks:        make([]int64, n),
		drops:       make([]int64, n),
		dups:        make([]int64, n),
	}
	return rn
}

// Spec returns the driving fault specification.
func (rn *ReliableNetwork) Spec() fault.Spec { return rn.inj.Spec() }

// Send injects a logical message.  The zero-injection fast path is the
// plain network, byte-for-byte; otherwise the message gets a sequence
// number and enters the retransmission state machine.
func (rn *ReliableNetwork) Send(m *Message) {
	if !rn.active || m.Src == m.Dst {
		rn.nw.Send(m)
		return
	}
	rn.nw.checkEndpoints(m)
	sc := &rn.send[m.Src*rn.n+m.Dst]
	m.SendTime = rn.eng.Now()
	pm := rn.newPending()
	pm.m, pm.seq, pm.rto = m, sc.nextSeq, rn.initialRTO(m.Size)
	sc.nextSeq++
	sc.inflight = append(sc.inflight, pm)
	rn.transmit(pm)
}

// newPending returns a recycled or fresh pendingMsg.  A recycled one
// keeps its generation, so events armed in its previous life stay stale.
func (rn *ReliableNetwork) newPending() *pendingMsg {
	if n := len(rn.freePending); n > 0 {
		pm := rn.freePending[n-1]
		rn.freePending = rn.freePending[:n-1]
		return pm
	}
	return &pendingMsg{rn: rn}
}

// newFrame returns a recycled or fresh frame for one wire transmission.
func (rn *ReliableNetwork) newFrame() *frame {
	if n := len(rn.freeFrames); n > 0 {
		f := rn.freeFrames[n-1]
		rn.freeFrames = rn.freeFrames[:n-1]
		return f
	}
	f := &frame{rn: rn}
	f.frame = f
	return f
}

// recycle returns f to the free list once no event refers to it.  The
// next putFrame or putAck sets every field a frame uses.
func (rn *ReliableNetwork) recycle(f *frame) {
	f.m = nil
	rn.freeFrames = append(rn.freeFrames, f)
}

// initialRTO estimates a first retransmission timeout from the message
// size and the communication parameters: roughly four times the
// uncontended round trip, floored at RTOMin.  Too-short timeouts only
// cost duplicate traffic (suppressed at the receiver), never
// correctness.
func (rn *ReliableNetwork) initialRTO(size int64) sim.Time {
	p := rn.nw.p
	oneWay := rn.bw.TransferCycles(size+HeaderBytes+rn.p.SeqBytes)*2 +
		2*p.NIOccupancy + p.LinkLatency + p.MsgHandling
	rto := 4 * oneWay
	if rto < rn.p.RTOMin {
		rto = rn.p.RTOMin
	}
	return rto
}

// transmit puts one wire transmission of pm on the (possibly faulty)
// network and arms the retransmission timer.  Transmissions initiated
// inside the source node's pause window or its NI's stall window wait
// for the window to end.
func (rn *ReliableNetwork) transmit(pm *pendingMsg) {
	now := rn.eng.Now()
	src, dst := pm.m.Src, pm.m.Dst
	defer1 := rn.inj.PauseUntil(src, now)
	if t := rn.inj.StallUntil(src, now); t > defer1 {
		defer1 = t
	}
	if defer1 > now {
		pm.arm(defer1, opTransmit)
		return
	}
	if pm.attempts >= rn.p.MaxAttempts {
		rn.eng.Fail(fmt.Errorf(
			"comm: message %d->%d kind %d seq %d undeliverable after %d attempts",
			src, dst, pm.m.Kind, pm.seq, pm.attempts))
		return
	}
	pm.attempts++
	d := rn.inj.Decide(src, dst)
	rn.putFrame(pm, d)
	if d.Dup {
		// The duplicate is its own wire transmission but reuses the
		// original's fate (delivered); the receiver suppresses it.
		rn.putFrame(pm, fault.Decision{Delay: d.Delay})
	}
	pm.arm(now+pm.rto, opTimeout)
}

// putFrame sends one data frame through the inner network.
func (rn *ReliableNetwork) putFrame(pm *pendingMsg, d fault.Decision) {
	m := pm.m
	if d.Drop {
		rn.drops[m.Src]++
		rn.eng.Tracer().MsgDrop(rn.eng.Now(), int32(m.Src), int64(m.Kind), pm.seq)
	}
	f := rn.newFrame()
	f.Src, f.Dst, f.Kind = m.Src, m.Dst, m.Kind
	f.Size = m.Size + rn.p.SeqBytes
	f.m, f.seq, f.delay = m, pm.seq, d.Delay
	rn.sendFrame(f, d.Drop)
}

// sendFrame puts f on the inner network.  A frame lost on the wire
// schedules no event there, so it is recycled at once.
func (rn *ReliableNetwork) sendFrame(f *frame, drop bool) {
	f.DropOnWire = drop
	rn.nw.Send(&f.Message)
	if drop {
		rn.recycle(f)
	}
}

// timeout fires when pm's ack did not arrive in time: back off and
// retransmit.
func (rn *ReliableNetwork) timeout(pm *pendingMsg) {
	src := pm.m.Src
	pm.rto *= 2
	if pm.rto > rn.p.RTOCap {
		pm.rto = rn.p.RTOCap
	}
	rn.retransmits[src]++
	rn.eng.Tracer().MsgRetransmit(rn.eng.Now(), int32(src), int64(pm.m.Kind), int64(pm.attempts))
	rn.transmit(pm)
}

// land handles a frame deposited at its destination NI: it waits out
// the injected delay and the receiver's pause window, then hands the
// frame to arrive or ackArrive and recycles it.
func (rn *ReliableNetwork) land(f *frame) {
	now := rn.eng.Now()
	if f.delay > 0 {
		at := now + f.delay
		f.delay = 0
		rn.eng.AtHandler(at, f, 0)
		return
	}
	if t := rn.inj.PauseUntil(f.Dst, now); t > now {
		rn.eng.AtHandler(t, f, 0)
		return
	}
	if f.m == nil {
		rn.ackArrive(f.Dst, f.Src, f.seq)
	} else {
		rn.arrive(f.Src, f.Dst, f.seq, f.m)
	}
	rn.recycle(f)
}

// arrive runs duplicate suppression and in-order delivery for one data
// frame of the (src, dst) pair, and acks.
func (rn *ReliableNetwork) arrive(src, dst int, seq int64, m *Message) {
	rc := &rn.recv[src*rn.n+dst]
	switch {
	case seq < rc.next:
		// Already delivered: a retransmission of an acked message (the
		// ack was lost or late).  Re-ack so the sender can stop.
		rn.dups[dst]++
	case seq == rc.next:
		rc.next++
		rn.nw.deliver(m)
		// Drain any buffered successors that are now in order.
		for rc.buf != nil {
			b, ok := rc.buf[rc.next]
			if !ok {
				break
			}
			delete(rc.buf, rc.next)
			rc.next++
			rn.nw.deliver(b)
		}
	default: // out of order: buffer, suppressing duplicates
		if rc.buf == nil {
			rc.buf = make(map[int64]*Message)
		}
		if _, dup := rc.buf[seq]; dup {
			rn.dups[dst]++
		} else {
			rc.buf[seq] = m
		}
	}
	rn.sendAck(src, dst, rc.next-1)
}

// sendAck sends a cumulative ack for the (src, dst) data pair from dst
// back to src: every seq <= ackSeq has been received in order.  Acks
// ride the same faulty fabric (they can be dropped, duplicated or
// delayed); a lost ack just means a retransmission the receiver will
// suppress.
func (rn *ReliableNetwork) sendAck(src, dst int, ackSeq int64) {
	if ackSeq < 0 {
		return // nothing received in order yet
	}
	rn.acks[dst]++
	rn.eng.Tracer().MsgAck(rn.eng.Now(), int32(dst), int64(src), ackSeq)
	d := rn.inj.Decide(dst, src)
	if d.Drop {
		rn.drops[dst]++
		rn.eng.Tracer().MsgDrop(rn.eng.Now(), int32(dst), -1, ackSeq)
	}
	rn.putAck(src, dst, ackSeq, d.Delay, d.Drop)
	if d.Dup {
		rn.putAck(src, dst, ackSeq, d.Delay, false)
	}
}

// putAck sends one ack frame for the (src, dst) data pair from dst to
// src.
func (rn *ReliableNetwork) putAck(src, dst int, ackSeq, delay int64, drop bool) {
	f := rn.newFrame()
	f.Src, f.Dst, f.Kind = dst, src, -1
	f.Size = rn.p.AckBytes
	f.seq, f.delay = ackSeq, delay
	rn.sendFrame(f, drop)
}

// ackArrive retires every in-flight message of the (src, dst) pair with
// seq <= ackSeq.  Cumulative acks make loss of any individual ack
// harmless.
func (rn *ReliableNetwork) ackArrive(src, dst int, ackSeq int64) {
	sc := &rn.send[src*rn.n+dst]
	k := int(ackSeq + 1 - sc.ackedTo)
	if k <= 0 {
		return // a stale or duplicate ack
	}
	// Retiring bumps the generation, which turns the pending timer into
	// a no-op, and recycles the record.
	for _, pm := range sc.inflight[:k] {
		pm.gen++
		pm.m, pm.attempts = nil, 0
		rn.freePending = append(rn.freePending, pm)
	}
	n := copy(sc.inflight, sc.inflight[k:])
	clear(sc.inflight[n:])
	sc.inflight = sc.inflight[:n]
	sc.ackedTo = ackSeq + 1
}

// --- counters (per node and total) ---

// RetransmitsFrom reports retransmissions sent by node i.
func (rn *ReliableNetwork) RetransmitsFrom(i int) int64 { return rn.retransmits[i] }

// AcksFrom reports acks sent by node i.
func (rn *ReliableNetwork) AcksFrom(i int) int64 { return rn.acks[i] }

// DropsFrom reports wire transmissions from node i that were lost.
func (rn *ReliableNetwork) DropsFrom(i int) int64 { return rn.drops[i] }

// DupsSuppressedAt reports duplicate frames suppressed at node i.
func (rn *ReliableNetwork) DupsSuppressedAt(i int) int64 { return rn.dups[i] }

func sumInt64(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// TotalRetransmits reports machine-wide retransmissions.
func (rn *ReliableNetwork) TotalRetransmits() int64 { return sumInt64(rn.retransmits) }

// TotalAcks reports machine-wide acks sent.
func (rn *ReliableNetwork) TotalAcks() int64 { return sumInt64(rn.acks) }

// TotalDrops reports machine-wide transmissions lost on the wire.
func (rn *ReliableNetwork) TotalDrops() int64 { return sumInt64(rn.drops) }

// TotalDupsSuppressed reports machine-wide suppressed duplicates.
func (rn *ReliableNetwork) TotalDupsSuppressed() int64 { return sumInt64(rn.dups) }
