package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// This file holds the benchmark's two views of where host time goes:
// Chrome-format spans the benchmark records around every call it makes
// into a layer, and a CPU profile bucketed by layer.  Both are taken
// from outside the program: no code under internal/ is instrumented.

// --- spans ---

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the recorder started
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spans keeps a round's spans in memory until the round ends.  A nil
// *spans records nothing, so untraced rounds pay one nil check per call.
type spans struct {
	mu     sync.Mutex
	start  time.Time
	events []chromeEvent
}

func newSpans() *spans { return &spans{start: time.Now()} }

// add records a span from start until now on track tid.  cat names the
// layer the call went into.
func (s *spans) add(cat, name string, tid int, start time.Time, args map[string]any) {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	s.events = append(s.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: tid,
		Ts:   float64(start.Sub(s.start).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: args,
	})
	s.mu.Unlock()
}

// write saves the spans as a Chrome trace file.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"traceEvents":     s.events,
		"displayTimeUnit": "ms",
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- CPU profile by layer ---

// layerOf maps a Go package path to the layer its CPU time is charged
// to, or "" for code outside the repository (the runtime, the standard
// library).
func layerOf(pkg string) string {
	if pkg == "main" {
		return "bench"
	}
	rest, ok := strings.CutPrefix(pkg, "swsm/internal/")
	if !ok {
		return ""
	}
	top, sub, _ := strings.Cut(rest, "/")
	switch {
	case top == "server" && sub == "client":
		return "client"
	case top == "obs" || top == "explore":
		// The daemon's metrics, logs and auto-tuner serve the job API.
		return "server"
	}
	switch top {
	case "sim", "core", "cache", "mem", "proto", "comm", "fault", "hetero",
		"consistency", "apps", "harness", "store", "server", "cluster":
		return top
	}
	return "other"
}

// profileLayers lists every bucket layerShares can charge, in report
// order.  "runtime" collects samples with no repository frame on the
// stack and no network frame either: garbage-collector workers and the
// scheduler.
var profileLayers = []string{
	"sim", "core", "cache", "mem", "proto", "comm", "fault", "hetero",
	"consistency", "apps", "harness", "store", "server", "cluster",
	"client", "net", "bench", "other", "runtime",
}

// funcPackage extracts the package path from a fully qualified Go
// function name such as "swsm/internal/proto/hlrc.(*Protocol).ensure".
// Receiver and type-parameter lists are cut first: the type arguments
// of a generic function's name can hold package paths of their own.
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerShares decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds charged to each layer.  A sample is charged to the layer
// of its innermost repository frame, so runtime work a layer causes
// (allocation, GC assists, channel handoffs) is charged to that layer;
// a sample with no repository frame goes to "net" when it is inside the
// network stack and to "runtime" otherwise.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		if nameIdx >= 0 && int(nameIdx) < len(p.strings) {
			funcName[id] = p.strings[nameIdx]
		}
	}
	out := make(map[string]float64, len(profileLayers))
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		layer, inNet := "", false
	frames:
		for _, locID := range s.locations {
			for _, fnID := range p.locations[locID] {
				pkg := funcPackage(funcName[fnID])
				if l := layerOf(pkg); l != "" {
					layer = l
					break frames
				}
				if pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "crypto/tls") {
					inNet = true
				}
			}
		}
		switch {
		case layer != "":
		case inNet:
			layer = "net"
		default:
			layer = "runtime"
		}
		out[layer] += v
	}
	return out, nil
}

// --- a minimal decoder for the pprof protobuf format ---

type pprofSample struct {
	locations []uint64
	values    []int64
}

type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: field number num, a varint in val,
// or the bytes of a length-delimited field in buf.
type pbField struct {
	num  int
	wire int
	val  uint64
	buf  []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbEach calls fn for every field of the message in b.
func pbEach(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n, err = pbVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.buf = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends the values of a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.buf
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile reads the fields of profile.proto the layer split needs:
// samples (location ids, values), locations (their inlined function
// chain), functions (their names) and the string table.
func decodeProfile(raw []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s pprofSample
			err := pbEach(f.buf, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = pbUints(s.locations, g)
				case 2:
					var vs []uint64
					vs, err = pbUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbEach(f.buf, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbEach(g.buf, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbEach(f.buf, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = int64(g.val)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.buf))
		}
		return nil
	})
	return p, err
}
