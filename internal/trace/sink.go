package trace

import (
	"bufio"
	"fmt"
	"io"
)

// --- Chrome trace_event sink ---

// Chrome trace-event phase and track conventions: every simulated
// processor is one tid, spans are complete ("X") events, instants are
// thread-scoped ("i"/"t") events, and virtual cycles map 1:1 to the
// format's microsecond timestamps (so Perfetto's "1 us" reads as "1
// cycle").  Serialization uses only fmt over integers — no maps, no
// floats — so identical event sequences produce identical bytes.

// ChromeSink streams events as Chrome trace_event JSON: open with
// NewChromeSink, feed it batches, then Close to emit the footer.  The
// output loads in Perfetto / chrome://tracing.
type ChromeSink struct {
	w      *bufio.Writer
	pid    int
	offset int64
	first  bool
	err    error
}

// NewChromeSink starts a trace_event JSON document on w.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{w: bufio.NewWriter(w), first: true}
	s.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	return s
}

func (s *ChromeSink) printf(format string, args ...interface{}) {
	if s.err != nil {
		return
	}
	_, s.err = fmt.Fprintf(s.w, format, args...)
}

func (s *ChromeSink) sep() {
	if s.first {
		s.first = false
		s.printf("\n")
	} else {
		s.printf(",\n")
	}
}

// Meta emits a metadata record (process_name / thread_name).
func (s *ChromeSink) Meta(kind string, tid int, name string) {
	s.sep()
	s.printf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":%q,\"args\":{\"name\":%q}}",
		s.pid, tid, kind, name)
}

// BeginProcess starts a new pid group (one per run when several runs
// share a file) and names it.
func (s *ChromeSink) BeginProcess(pid int, name string, procs int) {
	s.pid = pid
	s.Meta("process_name", 0, name)
	for tid := 0; tid < procs; tid++ {
		s.Meta("thread_name", tid, fmt.Sprintf("proc%d", tid))
	}
}

// SetOffset shifts the timestamps of subsequently serialized events by
// dus microseconds.  The stitched service-span export uses it to anchor
// a run's virtual cycle 0 at the wall-clock start of its simulate span;
// the default 0 keeps ordinary traces byte-identical to before.
func (s *ChromeSink) SetOffset(dus int64) { s.offset = dus }

// Complete emits an explicit complete ("X") span on a track of the
// current process group — the entry point the service layer uses to
// stitch wall-clock lifecycle spans above the simulator's event tracks.
func (s *ChromeSink) Complete(tid int, ts, dur int64, name, cat string) {
	s.sep()
	s.printf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":%q,\"cat\":%q}",
		s.pid, tid, ts, dur, name, cat)
}

// Events serializes one batch.
func (s *ChromeSink) Events(batch []Event) {
	for i := range batch {
		s.event(&batch[i])
	}
}

func (s *ChromeSink) event(ev *Event) {
	s.sep()
	name, cat := chromeName(ev)
	if ev.Dur > 0 {
		s.printf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":%q,\"cat\":%q,\"args\":{\"arg\":%d,\"arg2\":%d}}",
			s.pid, ev.Proc, s.offset+ev.At, ev.Dur, name, cat, ev.Arg, ev.Arg2)
		return
	}
	s.printf("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"name\":%q,\"cat\":%q,\"args\":{\"arg\":%d,\"arg2\":%d}}",
		s.pid, ev.Proc, s.offset+ev.At, name, cat, ev.Arg, ev.Arg2)
}

// chromeName renders a human-readable event name plus category.
func chromeName(ev *Event) (name, cat string) {
	switch ev.Kind {
	case KThreadState:
		switch ev.Arg {
		case StateBlocked:
			return "blocked", "thread"
		case StateRunning:
			return "running", "thread"
		case StateStarted:
			return "started", "thread"
		default:
			return "done", "thread"
		}
	case KMsgSend:
		return fmt.Sprintf("send k%d %dB", ev.Arg, ev.Arg2), "msg"
	case KMsgRecv:
		return fmt.Sprintf("recv k%d from %d", ev.Arg, ev.Arg2), "msg"
	case KPageFault:
		if ev.Arg2 != 0 {
			return fmt.Sprintf("wfault u%d", ev.Arg), "page"
		}
		return fmt.Sprintf("rfault u%d", ev.Arg), "page"
	case KPageFetch:
		return fmt.Sprintf("fetch u%d", ev.Arg), "page"
	case KDiffCreate:
		return fmt.Sprintf("diff u%d %dw", ev.Arg, ev.Arg2), "diff"
	case KDiffApply:
		return fmt.Sprintf("apply u%d %dw", ev.Arg, ev.Arg2), "diff"
	case KTwin:
		return fmt.Sprintf("twin u%d", ev.Arg), "diff"
	case KInvalidate:
		return fmt.Sprintf("inval u%d", ev.Arg), "page"
	case KLockWait:
		return fmt.Sprintf("lock %d", ev.Arg), "lock"
	case KLockRelease:
		return fmt.Sprintf("unlock %d", ev.Arg), "lock"
	case KBarrierWait:
		return fmt.Sprintf("barrier %d", ev.Arg), "barrier"
	case KHandler:
		return fmt.Sprintf("handler k%d", ev.Arg), "handler"
	case KMsgDrop:
		if ev.Arg < 0 {
			return fmt.Sprintf("drop ack s%d", ev.Arg2), "fault"
		}
		return fmt.Sprintf("drop k%d s%d", ev.Arg, ev.Arg2), "fault"
	case KMsgRetransmit:
		return fmt.Sprintf("rexmit k%d try%d", ev.Arg, ev.Arg2), "fault"
	case KMsgAck:
		return fmt.Sprintf("ack to %d s%d", ev.Arg, ev.Arg2), "msg"
	}
	return "unknown", "unknown"
}

// Close terminates the JSON document and flushes.
func (s *ChromeSink) Close() error {
	s.printf("\n]}\n")
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// --- compact JSONL sink ---

// JSONLSink streams events as one compact JSON object per line — the
// machine-readable counterpart of the Chrome sink (grep/jq-friendly,
// byte-identical across identical runs).
type JSONLSink struct {
	w   *bufio.Writer
	pid int
	err error
}

// NewJSONLSink starts a JSONL stream on w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// SetRun tags subsequent events with a run index (multi-run files).
func (s *JSONLSink) SetRun(pid int) { s.pid = pid }

// Events serializes one batch.
func (s *JSONLSink) Events(batch []Event) {
	for i := range batch {
		ev := &batch[i]
		if s.err != nil {
			return
		}
		_, s.err = fmt.Fprintf(s.w,
			"{\"run\":%d,\"at\":%d,\"dur\":%d,\"proc\":%d,\"kind\":%q,\"arg\":%d,\"arg2\":%d}\n",
			s.pid, ev.At, ev.Dur, ev.Proc, ev.Kind.String(), ev.Arg, ev.Arg2)
	}
}

// Close flushes the stream.
func (s *JSONLSink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// --- whole-Data writers (post-run serialization of captured traces) ---

// Run labels one captured run for multi-run trace files.
type Run struct {
	Label string
	Data  *Data
}

// WriteChrome serializes one captured run as Chrome trace_event JSON.
func WriteChrome(w io.Writer, label string, d *Data) error {
	return WriteChromeMulti(w, []Run{{Label: label, Data: d}})
}

// WriteChromeMulti serializes several captured runs into one Chrome
// trace file, one process group (pid) per run in slice order.  Output
// bytes depend only on the runs' contents — sweeps that assemble the
// same runs in the same order produce identical files.
func WriteChromeMulti(w io.Writer, runs []Run) error {
	s := NewChromeSink(w)
	for pid, r := range runs {
		if r.Data == nil {
			continue
		}
		s.BeginProcess(pid, r.Label, r.Data.Procs)
		s.Events(r.Data.Events)
	}
	return s.Close()
}

// WriteJSONL serializes captured runs as JSON lines, tagging each event
// with its run index.
func WriteJSONL(w io.Writer, runs []Run) error {
	s := NewJSONLSink(w)
	for pid, r := range runs {
		if r.Data == nil {
			continue
		}
		s.SetRun(pid)
		s.Events(r.Data.Events)
	}
	return s.Close()
}
