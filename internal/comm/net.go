package comm

import (
	"fmt"

	"swsm/internal/sim"
)

// Message is one network message.  Request messages (NeedsHandler) are
// dispatched to the destination node's protocol handler, paying the
// message-handling cost on that node's processor; data messages are
// deposited directly into host memory by the NI without involving the
// processor, exactly as in the paper's VMMC-style communication model.
type Message struct {
	Src, Dst int
	Kind     int   // protocol-defined tag
	Size     int64 // total bytes on the wire, including protocol header
	Payload  interface{}

	// NeedsHandler selects handler dispatch (requests) over direct
	// deposit (data/replies).
	NeedsHandler bool
	// OnDeliver fires when the message is fully deposited at the
	// destination (data messages only; ignored for handler messages).
	OnDeliver func(now sim.Time)

	// SendTime records when the message entered the network (set by Send).
	SendTime sim.Time

	// DropOnWire marks a transmission the fault plane has condemned: it
	// consumes source-side resources (I/O bus, NI, link) like any other
	// message but is never deposited at the destination.  Only the
	// reliable transport sets this; application-visible messages are
	// delivered exactly once or not at all.
	DropOnWire bool

	// nw is set by Send so the message itself can serve as the receiver
	// for its packet-arrival and delivery events (see HandleEvent),
	// keeping the per-packet hot path closure-free.
	nw *Network
	// frame is non-nil on the reliable transport's wire frames: delivery
	// hands the frame back to the transport instead of calling OnDeliver.
	frame *frame
}

// HandleEvent arg encodings for the closure-free packet pipeline: a
// non-negative arg is a packet arrival carrying pktBytes<<1 | last; a
// negative arg is final delivery.
const argDeliver = -1

// HeaderBytes is the fixed per-message header charged on the wire.
const HeaderBytes = 32

// endpoint carries one node's network-side resources.
type endpoint struct {
	ioBus *sim.Bandwidth // host <-> NI transfers, shared both directions
	niOut *sim.FIFO      // NI processor, outbound packet preparation
	niIn  *sim.FIFO      // NI processor, inbound packet handling
}

// Network is the cluster interconnect plus per-node network interfaces.
type Network struct {
	eng *sim.Engine
	p   Params
	// np, when non-nil, holds per-node parameter overrides (asymmetric
	// links in a heterogeneous cluster).  Nil keeps the uniform fast
	// path byte-for-byte.
	np  []Params
	eps []*endpoint

	// Dispatch receives handler messages once fully arrived; the core
	// machine installs it and models CPU occupancy and polling there.
	Dispatch func(m *Message, now sim.Time)

	// Statistics.
	MsgCount  int64
	ByteCount int64
	PktCount  int64
}

// NewNetwork builds the interconnect for n nodes.
func NewNetwork(eng *sim.Engine, n int, p Params) *Network {
	if p.MaxPacket <= 0 {
		p.MaxPacket = 4096
	}
	nw := &Network{eng: eng, p: p, eps: make([]*endpoint, n)}
	for i := range nw.eps {
		nw.eps[i] = newEndpoint(i, p)
	}
	return nw
}

// NewNetworkPerNode builds an interconnect whose node i uses perNode[i]
// instead of the base parameters — fast and slow links coexisting in
// one network.  A node's own parameters govern its side of a transfer:
// outbound packets pay the source's NI occupancy and I/O bus, inbound
// packets the destination's, and the wire latency is the slower end's
// LinkLatency.  Packetization uses the base MaxPacket throughout (one
// fabric, one MTU).  len(perNode) must be n; a nil perNode degrades to
// NewNetwork.
func NewNetworkPerNode(eng *sim.Engine, n int, p Params, perNode []Params) *Network {
	if perNode == nil {
		return NewNetwork(eng, n, p)
	}
	if len(perNode) != n {
		panic(fmt.Sprintf("comm: %d per-node params for %d nodes", len(perNode), n))
	}
	if p.MaxPacket <= 0 {
		p.MaxPacket = 4096
	}
	nw := &Network{eng: eng, p: p, np: append([]Params(nil), perNode...), eps: make([]*endpoint, n)}
	for i := range nw.eps {
		nw.eps[i] = newEndpoint(i, nw.np[i])
	}
	return nw
}

func newEndpoint(i int, p Params) *endpoint {
	return &endpoint{
		ioBus: sim.NewBandwidth(fmt.Sprintf("iobus%d", i), p.IOBusBytesNum, p.IOBusBytesDen),
		niOut: sim.NewFIFO(fmt.Sprintf("niout%d", i)),
		niIn:  sim.NewFIFO(fmt.Sprintf("niin%d", i)),
	}
}

// Params reports the configured (base) communication parameters.
func (nw *Network) Params() Params { return nw.p }

// ParamsAt reports the communication parameters governing node i's
// endpoint (the base parameters unless per-node overrides are set).
func (nw *Network) ParamsAt(i int) Params {
	if nw.np != nil {
		return nw.np[i]
	}
	return nw.p
}

// Send injects m into the network at the current engine time.  The host
// overhead is NOT charged here: the sender charges it in its own context
// (thread or handler), since sends are asynchronous and the paper defines
// host overhead as processor busy time.
func (nw *Network) Send(m *Message) {
	nw.checkEndpoints(m)
	now := nw.eng.Now()
	m.SendTime = now
	m.nw = nw
	if m.Src == m.Dst {
		// Loopback: no network resources; deliver after a fixed small
		// local cost (protocols mostly avoid this path).
		nw.eng.AtHandler(now+1, m, argDeliver)
		return
	}
	nw.MsgCount++
	size := m.Size + HeaderBytes
	nw.ByteCount += size
	src := nw.eps[m.Src]
	niOcc, latency := nw.p.NIOccupancy, nw.p.LinkLatency
	if nw.np != nil {
		// The source's NI prepares outbound packets; the wire runs at the
		// slower end's latency.
		niOcc = nw.np[m.Src].NIOccupancy
		latency = nw.np[m.Src].LinkLatency
		if l := nw.np[m.Dst].LinkLatency; l > latency {
			latency = l
		}
	}

	// Split into packets; pipeline each through source I/O bus and NI.
	remaining := size
	pending := 0
	for remaining > 0 {
		pkt := remaining
		if pkt > nw.p.MaxPacket {
			pkt = nw.p.MaxPacket
		}
		remaining -= pkt
		pending++
		nw.PktCount++

		_, ioEnd := src.ioBus.Reserve(now, pkt)
		_, niEnd := src.niOut.Reserve(ioEnd, niOcc)
		arrive := niEnd + latency
		var lastBit int64
		if remaining == 0 {
			lastBit = 1
		}
		if m.DropOnWire {
			// Lost in the fabric: source-side resources were consumed,
			// nothing reaches the destination.
			continue
		}
		// Receiver-side resources are reserved at arrival time (in an
		// event) so that packets from different senders contend in true
		// arrival order.  The message itself is the event receiver; the
		// arg packs the packet size and last-packet flag, so the hot
		// per-packet path schedules no closures.
		nw.eng.AtHandler(arrive, m, pkt<<1|lastBit)
	}
}

// HandleEvent is the closure-free event entry for this message's wire
// lifecycle: packet arrival at the destination NI (arg >= 0, carrying
// pktBytes<<1 | last) and final delivery (argDeliver).
func (m *Message) HandleEvent(now sim.Time, arg int64) {
	nw := m.nw
	if arg < 0 {
		nw.deliver(m)
		return
	}
	dst := nw.eps[m.Dst]
	niOcc := nw.p.NIOccupancy
	if nw.np != nil {
		niOcc = nw.np[m.Dst].NIOccupancy
	}
	_, inEnd := dst.niIn.Reserve(now, niOcc)
	_, depEnd := dst.ioBus.Reserve(inEnd, arg>>1)
	if arg&1 != 0 {
		nw.eng.AtHandler(depEnd, m, argDeliver)
	}
}

// checkEndpoints panics with a self-explanatory message when Src or Dst
// is outside the machine; without it an out-of-range Dst surfaces as an
// index panic deep in endpoint bookkeeping.
func (nw *Network) checkEndpoints(m *Message) {
	if m.Src < 0 || m.Src >= len(nw.eps) {
		panic(fmt.Sprintf("comm: Send from out-of-range Src %d (nodes 0..%d)", m.Src, len(nw.eps)-1))
	}
	if m.Dst < 0 || m.Dst >= len(nw.eps) {
		panic(fmt.Sprintf("comm: Send to out-of-range Dst %d (nodes 0..%d)", m.Dst, len(nw.eps)-1))
	}
}

// NumNodes reports the machine size the network was built for.
func (nw *Network) NumNodes() int { return len(nw.eps) }

func (nw *Network) deliver(m *Message) {
	now := nw.eng.Now()
	if m.NeedsHandler {
		if nw.Dispatch == nil {
			panic("comm: no dispatch function installed")
		}
		nw.Dispatch(m, now)
		return
	}
	if m.frame != nil {
		m.frame.rn.land(m.frame)
		return
	}
	if m.OnDeliver != nil {
		m.OnDeliver(now)
	}
}

// NIUses reports how many packets node i's NI processed outbound.
func (nw *Network) NIUses(i int) int64 { return nw.eps[i].niOut.Uses() }
