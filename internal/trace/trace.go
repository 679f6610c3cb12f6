// Package trace is the simulator's deterministic observability layer:
// a typed event tracer, an interval sampler that turns the Figure-4
// breakdown categories into time series, and a hot-object profiler that
// ranks pages, locks and barriers by the traffic and wait time they
// generate (the Table-4/5-style drill-down).
//
// Design constraints, in priority order:
//
//   - Zero overhead when disabled.  Every hook is a method on *Tracer
//     with a nil-receiver fast path, so instrumented code calls
//     tr.PageFault(...) unconditionally and a nil tracer costs one
//     predictable branch — no allocation, no interface dispatch.
//   - Determinism.  Events carry only virtual time and integer object
//     ids, never wall-clock readings or map-iteration artifacts, so the
//     same RunSpec produces a byte-identical serialized trace no matter
//     how (or how parallel) the surrounding sweep runs.
//   - Capture, then write.  The tracer appends every event to one
//     in-memory log and keeps it for the whole run, so memory grows
//     with the run's event count; the Chrome and JSONL writers
//     serialize the log after the run, so concurrently executing runs
//     cannot interleave output.
package trace

import "swsm/internal/stats"

// Kind enumerates the traced event types.
type Kind uint8

// Event kinds.  Span kinds carry a nonzero Dur; instant kinds have
// Dur == 0 by construction.
const (
	// KThreadState marks a simulated-thread scheduling transition
	// (Arg: 1 = running, 0 = blocked, 2 = started, 3 = finished).
	KThreadState Kind = iota
	// KMsgSend is a message injection (Arg = protocol kind, Arg2 = wire
	// bytes including header).
	KMsgSend
	// KMsgRecv is a handler-message arrival at its destination
	// (Arg = protocol kind, Arg2 = source node).
	KMsgRecv
	// KPageFault is an access fault on an invalid coherence unit
	// (Arg = unit id, Arg2 = 1 for a write access).
	KPageFault
	// KPageFetch spans a remote fetch: request send to data arrival
	// (Arg = unit id).
	KPageFetch
	// KDiffCreate records a diff creation (Arg = unit, Arg2 = words
	// written into the diff).
	KDiffCreate
	// KDiffApply records a diff application (Arg = unit, Arg2 = words).
	KDiffApply
	// KTwin records a twin (pristine copy) creation (Arg = unit).
	KTwin
	// KInvalidate records a coherence-unit invalidation (Arg = unit).
	KInvalidate
	// KLockWait spans a lock acquisition including the wait (Arg = lock).
	KLockWait
	// KLockRelease marks a release-side consistency action (Arg = lock).
	KLockRelease
	// KBarrierWait spans a barrier episode: flush, arrival and wait for
	// the release (Arg = barrier).
	KBarrierWait
	// KHandler spans a protocol handler execution (Arg = message kind).
	KHandler
	// KMsgDrop marks a wire transmission the fault plane lost
	// (Arg = protocol kind, -1 for an ack; Arg2 = sequence number).
	KMsgDrop
	// KMsgRetransmit marks a timeout-driven retransmission
	// (Arg = protocol kind, Arg2 = attempt count so far).
	KMsgRetransmit
	// KMsgAck marks a cumulative transport ack leaving a node
	// (Arg = destination node, Arg2 = acknowledged sequence number).
	KMsgAck
	numKinds
)

var kindNames = [numKinds]string{
	"threadState", "msgSend", "msgRecv", "pageFault", "pageFetch",
	"diffCreate", "diffApply", "twin", "invalidate",
	"lockWait", "lockRelease", "barrierWait", "handler",
	"msgDrop", "msgRetransmit", "msgAck",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Thread-state values for KThreadState events.
const (
	StateBlocked int64 = 0
	StateRunning int64 = 1
	StateStarted int64 = 2
	StateDone    int64 = 3
)

// Event is one trace record.  It is a fixed-size value type: emitting
// one never allocates, and serialization order is exactly emission
// order, which the single-threaded simulation engine already makes
// deterministic.
type Event struct {
	// At is the event's virtual start time in cycles; Dur is the span
	// length (0 for instant events).
	At  int64
	Dur int64
	// Arg and Arg2 are kind-specific (object id, byte count, ...).
	Arg  int64
	Arg2 int64
	// Proc is the processor (track) the event belongs to.
	Proc int32
	Kind Kind
}

// Options configures a Tracer.
type Options struct {
	// Profile attaches a hot-object profiler.
	Profile bool
	// SampleEvery attaches an interval sampler snapshotting the
	// breakdown categories every N cycles (0 = no sampling).
	SampleEvery int64
}

// Tracer collects events.  All hook methods are nil-safe: a nil
// *Tracer is the disabled tracer and every hook returns immediately.
type Tracer struct {
	events []Event

	prof *Profiler
	samp *Sampler
}

// New creates an enabled tracer.
func New(opts Options) *Tracer {
	t := &Tracer{}
	if opts.Profile {
		t.prof = newProfiler()
	}
	if opts.SampleEvery > 0 {
		t.samp = &Sampler{Every: opts.SampleEvery}
	}
	return t
}

// Profiler returns the attached hot-object profiler, or nil.
func (t *Tracer) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// Sampler returns the attached interval sampler, or nil.
func (t *Tracer) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.samp
}

// emit appends one event to the log.
func (t *Tracer) emit(ev Event) { t.events = append(t.events, ev) }

// Data snapshots everything the tracer collected: the event log, the
// sampled breakdown time series and the hot-object profile.  The
// returned value is immutable by convention — memoized sweep results
// share it.
type Data struct {
	// Procs is the processor count of the run (track count for sinks).
	Procs int
	// Events is the full event log in emission order.
	Events []Event
	// Samples is the breakdown time series (nil without sampling).
	Samples []Sample
	// Hot is the hot-object profile (nil without profiling).
	Hot *Profile
}

// Data snapshots the tracer's collected state.
func (t *Tracer) Data() *Data {
	if t == nil {
		return nil
	}
	d := &Data{Events: t.events}
	if t.samp != nil {
		d.Samples = t.samp.Rows()
	}
	if t.prof != nil {
		d.Hot = t.prof.Profile()
	}
	return d
}

// --- hook methods (all nil-safe) ---

// ThreadState records a scheduling transition for processor proc.
func (t *Tracer) ThreadState(at int64, proc int32, state int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KThreadState, Arg: state})
}

// MsgSend records a message injection on the source processor.
func (t *Tracer) MsgSend(at int64, proc int32, kind, bytes int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KMsgSend, Arg: kind, Arg2: bytes})
}

// MsgRecv records a handler-message arrival on the destination.
func (t *Tracer) MsgRecv(at int64, proc int32, kind, src int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KMsgRecv, Arg: kind, Arg2: src})
}

// PageFault records an access fault on a coherence unit.
func (t *Tracer) PageFault(at int64, proc int32, unit int64, write bool) {
	if t == nil {
		return
	}
	var w int64
	if write {
		w = 1
	}
	t.emit(Event{At: at, Proc: proc, Kind: KPageFault, Arg: unit, Arg2: w})
	if t.prof != nil {
		t.prof.pageFault(unit)
	}
}

// PageFetch spans a remote unit fetch from request to data arrival.
func (t *Tracer) PageFetch(start, end int64, proc int32, unit int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: start, Dur: end - start, Proc: proc, Kind: KPageFetch, Arg: unit})
	if t.prof != nil {
		t.prof.pageFetch(unit, end-start)
	}
}

// DiffCreate records a diff creation of `words` modified words.
func (t *Tracer) DiffCreate(at int64, proc int32, unit, words int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KDiffCreate, Arg: unit, Arg2: words})
	if t.prof != nil {
		t.prof.diff(unit, words*8)
	}
}

// DiffApply records a diff application at the unit's home.
func (t *Tracer) DiffApply(at int64, proc int32, unit, words int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KDiffApply, Arg: unit, Arg2: words})
}

// Twin records a twin creation.
func (t *Tracer) Twin(at int64, proc int32, unit int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KTwin, Arg: unit})
	if t.prof != nil {
		t.prof.twin(unit)
	}
}

// Invalidate records a coherence-unit invalidation.
func (t *Tracer) Invalidate(at int64, proc int32, unit int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KInvalidate, Arg: unit})
	if t.prof != nil {
		t.prof.invalidate(unit)
	}
}

// LockWait spans a lock acquisition, including the wait for the grant.
func (t *Tracer) LockWait(start, end int64, proc int32, lock int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: start, Dur: end - start, Proc: proc, Kind: KLockWait, Arg: lock})
	if t.prof != nil {
		t.prof.lock(lock, end-start)
	}
}

// LockRelease records the release-side action of a lock.
func (t *Tracer) LockRelease(at int64, proc int32, lock int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KLockRelease, Arg: lock})
}

// BarrierWait spans one barrier episode on a processor.
func (t *Tracer) BarrierWait(start, end int64, proc int32, bar int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: start, Dur: end - start, Proc: proc, Kind: KBarrierWait, Arg: bar})
	if t.prof != nil {
		t.prof.barrier(bar, end-start)
	}
}

// Handler spans a protocol handler execution on a processor.
func (t *Tracer) Handler(start, end int64, proc int32, kind int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: start, Dur: end - start, Proc: proc, Kind: KHandler, Arg: kind})
}

// MsgDrop records a wire transmission lost by the fault plane (kind -1
// marks a transport ack).
func (t *Tracer) MsgDrop(at int64, proc int32, kind, seq int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KMsgDrop, Arg: kind, Arg2: seq})
}

// MsgRetransmit records a timeout-driven retransmission on the sender.
func (t *Tracer) MsgRetransmit(at int64, proc int32, kind, attempt int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KMsgRetransmit, Arg: kind, Arg2: attempt})
}

// MsgAck records a cumulative transport ack leaving proc toward peer.
func (t *Tracer) MsgAck(at int64, proc int32, peer, seq int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: at, Proc: proc, Kind: KMsgAck, Arg: peer, Arg2: seq})
}

// SampleNow snapshots the breakdown categories into the sampler, if one
// is attached (called by the core's sampling event).
func (t *Tracer) SampleNow(cycle int64, m *stats.Machine) {
	if t == nil || t.samp == nil {
		return
	}
	t.samp.Snapshot(cycle, m)
}
