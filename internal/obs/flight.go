package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecord is one service lifecycle record in the flight ring.
type FlightRecord struct {
	T     time.Time `json:"t"`
	Job   string    `json:"job,omitempty"`
	State string    `json:"state"`
	Msg   string    `json:"msg,omitempty"`
}

// Flight is the service flight recorder: a bounded ring of the most
// recent lifecycle records, dumped to disk — together with a short CPU
// profile — when something goes wrong (a job fails or breaches its
// latency SLO).  The ring records continuously and cheaply; the
// expensive part (serialization, profiling) happens only at dump time.
//
// All methods are nil-safe: a nil *Flight is the disabled recorder and
// Record costs one branch.
type Flight struct {
	mu   sync.Mutex
	ring []FlightRecord
	next int
	n    int

	dir     string
	cpuDur  time.Duration
	dumping atomic.Bool
	dumps   atomic.Int64
}

// DefaultFlightRecords is the default ring capacity.
const DefaultFlightRecords = 512

// NewFlight creates a recorder of up to n records (DefaultFlightRecords
// if n <= 0) dumping into dir.  cpuDur bounds the CPU profile captured
// alongside a dump (0 disables profiling).
func NewFlight(n int, dir string, cpuDur time.Duration) *Flight {
	if n <= 0 {
		n = DefaultFlightRecords
	}
	return &Flight{ring: make([]FlightRecord, n), dir: dir, cpuDur: cpuDur}
}

// Record appends one lifecycle record, overwriting the oldest once the
// ring is full.
func (f *Flight) Record(job, state, msg string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = FlightRecord{T: time.Now(), Job: job, State: state, Msg: msg}
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
}

// Snapshot returns the retained records, oldest first.
func (f *Flight) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, f.n)
	if f.n == len(f.ring) {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring[:f.next]...)
	}
	return out
}

// Dumps reports how many dumps completed (test support).
func (f *Flight) Dumps() int64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}

// Dump writes the current ring as JSON to
// <dir>/svmd-flight-<job>-<stamp>.json and, if profiling is enabled,
// captures a cpuDur CPU profile next to it.  Only one dump runs at a
// time — a trigger arriving mid-dump is dropped (the ring it would have
// written is substantially the same).  Returns the dump path ("" when
// skipped).
func (f *Flight) Dump(reason, job string) (string, error) {
	if f == nil || f.dir == "" {
		return "", nil
	}
	if !f.dumping.CompareAndSwap(false, true) {
		return "", nil
	}
	defer f.dumping.Store(false)
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	stamp := time.Now().UTC().Format("20060102T150405.000")
	base := filepath.Join(f.dir, fmt.Sprintf("svmd-flight-%s-%s", sanitize(job), stamp))
	doc := struct {
		Reason  string         `json:"reason"`
		Job     string         `json:"job"`
		Records []FlightRecord `json:"records"`
	}{Reason: reason, Job: job, Records: f.Snapshot()}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	// Write then rename, so a reader that finds the dump by name never
	// sees it half written.
	if err := os.WriteFile(base+".json.tmp", append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(base+".json.tmp", base+".json"); err != nil {
		return "", err
	}
	if f.cpuDur > 0 {
		// Best effort: pprof refuses if another profile (e.g. an operator's
		// /debug/pprof/profile) is already running — the dump is still
		// useful without it.
		if pf, err := os.Create(base + ".pprof"); err == nil {
			if pprof.StartCPUProfile(pf) == nil {
				time.Sleep(f.cpuDur)
				pprof.StopCPUProfile()
				pf.Close()
			} else {
				pf.Close()
				os.Remove(pf.Name())
			}
		}
	}
	f.dumps.Add(1)
	return base + ".json", nil
}

// sanitize keeps dump file names path-safe.
func sanitize(s string) string {
	if s == "" {
		return "none"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
