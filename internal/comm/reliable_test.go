package comm

import (
	"strings"
	"testing"

	"swsm/internal/fault"
	"swsm/internal/sim"
)

// reliableDeliveries sends n sized messages 0->1 through a
// ReliableNetwork driven by spec and returns per-message delivery counts
// and the delivery order, plus the transport for counter inspection.
func reliableDeliveries(t *testing.T, spec fault.Spec, n int, size int64) (counts []int, order []int, rn *ReliableNetwork) {
	t.Helper()
	eng := sim.NewEngine()
	rn = NewReliableNetwork(NewNetwork(eng, 2, Achievable()), spec, DefaultReliableParams())
	counts = make([]int, n)
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			i := i
			rn.Send(&Message{Src: 0, Dst: 1, Kind: i, Size: size,
				OnDeliver: func(sim.Time) {
					counts[i]++
					order = append(order, i)
				}})
		}
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return counts, order, rn
}

// assertExactlyOnceFIFO is the transport's contract toward the
// protocols: every message delivered exactly once, in send order.
func assertExactlyOnceFIFO(t *testing.T, counts []int, order []int) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("message %d delivered %d times, want exactly once", i, c)
		}
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("delivery order %v is not FIFO", order)
		}
	}
}

func TestReliableZeroFaultPassthrough(t *testing.T) {
	// With Reliable set but nothing injected, delivery must be
	// cycle-identical to the plain network (the fast path IS the plain
	// path).
	plain := deliverAt(t, Achievable(), 32)

	eng := sim.NewEngine()
	nw := NewNetwork(eng, 4, Achievable())
	rn := NewReliableNetwork(nw, fault.Spec{Reliable: true}, DefaultReliableParams())
	var at sim.Time = -1
	eng.At(0, func() {
		rn.Send(&Message{Src: 0, Dst: 1, Size: 32,
			OnDeliver: func(now sim.Time) { at = now }})
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != plain {
		t.Fatalf("zero-fault reliable delivery at %d, plain network at %d", at, plain)
	}
	if rn.TotalAcks() != 0 || rn.TotalRetransmits() != 0 {
		t.Fatal("zero-fault fast path generated transport traffic")
	}
	if nw.MsgCount != 1 {
		t.Fatalf("zero-fault fast path sent %d wire messages, want 1", nw.MsgCount)
	}
}

func TestReliableSurvivesDrops(t *testing.T) {
	spec := fault.Spec{Seed: 11, DropPPM: 300_000} // 30%: plenty of loss
	counts, order, rn := reliableDeliveries(t, spec, 40, 256)
	assertExactlyOnceFIFO(t, counts, order)
	if rn.TotalDrops() == 0 {
		t.Fatal("30% drop rate lost nothing")
	}
	if rn.TotalRetransmits() == 0 {
		t.Fatal("drops recovered without any retransmission")
	}
	if rn.TotalAcks() == 0 {
		t.Fatal("no acks sent")
	}
}

func TestReliableSuppressesDuplicates(t *testing.T) {
	spec := fault.Spec{Seed: 5, DupPPM: fault.PPM} // duplicate every frame
	counts, order, rn := reliableDeliveries(t, spec, 20, 64)
	assertExactlyOnceFIFO(t, counts, order)
	if rn.TotalDupsSuppressed() == 0 {
		t.Fatal("100% duplication suppressed nothing")
	}
}

func TestReliableReordersBackIntoFIFO(t *testing.T) {
	// Heavy injected delay reorders frames on the wire; the receiver's
	// reorder buffer must still deliver in send order.
	spec := fault.Spec{Seed: 23, DelayPPM: 600_000, DelayMax: 40_000}
	counts, order, _ := reliableDeliveries(t, spec, 30, 128)
	assertExactlyOnceFIFO(t, counts, order)
}

func TestReliableMixedFaults(t *testing.T) {
	spec := fault.Spec{Seed: 3, DropPPM: 100_000, DupPPM: 100_000,
		DelayPPM: 200_000, DelayMax: 20_000,
		PauseEvery: 50_000, PauseFor: 5_000}
	counts, order, rn := reliableDeliveries(t, spec, 40, 512)
	assertExactlyOnceFIFO(t, counts, order)
	if rn.TotalRetransmits() == 0 && rn.TotalDrops() == 0 && rn.TotalDupsSuppressed() == 0 {
		t.Fatal("mixed fault plan induced no transport activity at all")
	}
}

func TestReliableDeterministic(t *testing.T) {
	spec := fault.Spec{Seed: 77, DropPPM: 150_000, DupPPM: 50_000, DelayPPM: 100_000}
	run := func() (sim.Time, int64, int64) {
		eng := sim.NewEngine()
		rn := NewReliableNetwork(NewNetwork(eng, 2, Achievable()), spec, DefaultReliableParams())
		var last sim.Time
		eng.At(0, func() {
			for i := 0; i < 25; i++ {
				rn.Send(&Message{Src: 0, Dst: 1, Size: 200,
					OnDeliver: func(now sim.Time) { last = now }})
			}
		})
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last, rn.TotalRetransmits(), rn.TotalDrops()
	}
	t1, rx1, dr1 := run()
	t2, rx2, dr2 := run()
	if t1 != t2 || rx1 != rx2 || dr1 != dr2 {
		t.Fatalf("identical specs diverged: (%d, %d, %d) vs (%d, %d, %d)",
			t1, rx1, dr1, t2, rx2, dr2)
	}
	if rx1 == 0 {
		t.Fatal("15% drops caused no retransmission")
	}
}

func TestReliableGivesUpOnDeadFabric(t *testing.T) {
	// Dropping every transmission (data, retransmits and acks) must
	// exhaust MaxAttempts and fail the run instead of spinning forever.
	spec := fault.Spec{Seed: 1, DropPPM: fault.PPM}
	eng := sim.NewEngine()
	p := DefaultReliableParams()
	p.MaxAttempts = 5
	rn := NewReliableNetwork(NewNetwork(eng, 2, Achievable()), spec, p)
	eng.At(0, func() {
		rn.Send(&Message{Src: 0, Dst: 1, Size: 64, OnDeliver: func(sim.Time) {
			t.Error("message delivered through a 100%-loss fabric")
		}})
	})
	_, err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("Run() = %v, want an undeliverable-message failure", err)
	}
}

func TestReliableLoopbackBypassesTransport(t *testing.T) {
	spec := fault.Spec{Seed: 1, DropPPM: fault.PPM}
	eng := sim.NewEngine()
	rn := NewReliableNetwork(NewNetwork(eng, 2, Achievable()), spec, DefaultReliableParams())
	delivered := false
	eng.At(0, func() {
		rn.Send(&Message{Src: 1, Dst: 1, Size: 64,
			OnDeliver: func(sim.Time) { delivered = true }})
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("loopback message lost; local delivery must bypass the faulty wire")
	}
}

// quietFaults is an active fault spec that, at this seed, injects
// nothing into the handful of transmissions a test makes: the
// transport runs its full sequencing, ack and timer machinery on a
// lossless wire.
var quietFaults = fault.Spec{Seed: 1, DropPPM: 1}

func TestReliableAckCancelsRetransmission(t *testing.T) {
	eng := sim.NewEngine()
	rn := NewReliableNetwork(NewNetwork(eng, 2, Achievable()), quietFaults, DefaultReliableParams())
	delivered := 0
	var pm *pendingMsg
	eng.At(0, func() {
		rn.Send(&Message{Src: 0, Dst: 1, Size: 64, OnDeliver: func(sim.Time) { delivered++ }})
		pm = rn.send[1].inflight[0]
	})
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || rn.TotalAcks() != 1 || rn.TotalDrops() != 0 {
		t.Fatalf("delivered %d, acks %d, drops %d; want 1, 1, 0", delivered, rn.TotalAcks(), rn.TotalDrops())
	}
	// The ack retired the message well before its RTO; the timer event
	// still fired at the RTO (the queue has no removal) and did nothing.
	rto := rn.initialRTO(64)
	if end != rto {
		t.Fatalf("run ended at %d, want the stale timer's expiry %d", end, rto)
	}
	if rn.TotalRetransmits() != 0 || len(rn.send[1].inflight) != 0 {
		t.Fatalf("retransmits %d, in flight %d after the ack", rn.TotalRetransmits(), len(rn.send[1].inflight))
	}
	if len(rn.freePending) != 1 || rn.freePending[0] != pm {
		t.Fatal("the acked message's record was not recycled")
	}
	// Replaying the superseded timer by hand is a no-op too.
	pm.HandleEvent(end, (pm.gen-1)<<1|opTimeout)
	if rn.TotalRetransmits() != 0 || eng.PendingEvents() != 0 {
		t.Fatal("a stale timer event retransmitted")
	}
}

func TestReliableTimeoutDoublesRTO(t *testing.T) {
	// Every transmission is lost, so each timer fires live: the RTO
	// doubles up to the cap and the timer is re-armed each time.
	eng := sim.NewEngine()
	p := DefaultReliableParams()
	p.MaxAttempts = 5
	rn := NewReliableNetwork(NewNetwork(eng, 2, Achievable()), fault.Spec{Seed: 1, DropPPM: fault.PPM}, p)
	r0 := rn.initialRTO(64)
	rn.p.RTOCap = 3 * r0
	var pm *pendingMsg
	eng.At(0, func() {
		rn.Send(&Message{Src: 0, Dst: 1, Size: 64})
		pm = rn.send[1].inflight[0]
	})
	// Probe just after each expected expiry: 0+r0, then +2r0, then +3r0
	// (capped), then +3r0.
	expiry := sim.Time(0)
	for i, rto := range []sim.Time{r0, 2 * r0, 3 * r0, 3 * r0} {
		expiry += rto
		i, next := i, []sim.Time{2 * r0, 3 * r0, 3 * r0, 3 * r0}[i]
		eng.At(expiry+1, func() {
			if pm.attempts != i+2 || pm.rto != next {
				t.Errorf("after timeout %d: attempts %d, rto %d; want %d, %d",
					i+1, pm.attempts, pm.rto, i+2, next)
			}
		})
	}
	_, err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("Run() = %v, want an undeliverable-message failure", err)
	}
	if got := rn.TotalRetransmits(); got != 5 {
		t.Fatalf("retransmits = %d, want 5 (four re-sends and the give-up)", got)
	}
}

func TestReliableDroppedFrameNeverDelivered(t *testing.T) {
	// A frame lost on the wire is recycled at once; its next use, for a
	// different message, must be the only delivery it makes.
	eng := sim.NewEngine()
	rn := NewReliableNetwork(NewNetwork(eng, 3, Achievable()), quietFaults, DefaultReliableParams())
	lost, got := 0, 0
	eng.At(0, func() {
		pm := &pendingMsg{rn: rn, m: &Message{Src: 0, Dst: 2, Size: 64,
			OnDeliver: func(sim.Time) { lost++ }}}
		rn.putFrame(pm, fault.Decision{Drop: true})
		if len(rn.freeFrames) != 1 {
			t.Fatalf("dropped frame not recycled: %d free", len(rn.freeFrames))
		}
		f := rn.freeFrames[0]
		rn.Send(&Message{Src: 0, Dst: 1, Size: 64, OnDeliver: func(sim.Time) { got++ }})
		if len(rn.freeFrames) != 0 || f.m == nil || f.m.Dst != 1 {
			t.Fatal("the next transmission did not reuse the dropped frame")
		}
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if lost != 0 || got != 1 || rn.TotalDupsSuppressed() != 0 || rn.TotalAcks() != 1 {
		t.Fatalf("dropped delivered %d, reused delivered %d, dups %d, acks %d; want 0, 1, 0, 1",
			lost, got, rn.TotalDupsSuppressed(), rn.TotalAcks())
	}
}

// TestReliableRoundTripNoAllocs is the transport's allocation gate: a
// warm send -> deliver -> ack round trip under an active injector,
// including the retransmission timer it arms and retires, allocates
// nothing — frames, acks and timer records are all recycled.
func TestReliableRoundTripNoAllocs(t *testing.T) {
	eng := sim.NewEngine()
	rn := NewReliableNetwork(NewNetwork(eng, 2, Achievable()), quietFaults, DefaultReliableParams())
	delivered := 0
	m := &Message{}
	onDeliver := func(sim.Time) { delivered++ }
	send := func() {
		*m = Message{Src: 0, Dst: 1, Size: 256, OnDeliver: onDeliver}
		rn.Send(m)
	}
	roundTrip := func() {
		eng.At(eng.Now(), send)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the free lists and the pair's maps
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("round trip allocated %.1f times, want 0", allocs)
	}
	if delivered != 102 || rn.TotalAcks() != 102 || rn.TotalDrops() != 0 {
		t.Fatalf("delivered %d, acks %d, drops %d; want 102, 102, 0", delivered, rn.TotalAcks(), rn.TotalDrops())
	}
}
