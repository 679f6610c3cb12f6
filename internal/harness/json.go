package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"swsm/internal/consistency"
	"swsm/internal/stats"
	"swsm/internal/store"
)

// RunRow is the machine-readable form of a Result: the one JSON shape
// shared by the svmsim/svmbench -json output, the experiment service's
// responses, the persistent result store's payloads, and the CI smoke
// checks.  It carries everything a remote consumer can use — the spec,
// its content key, the cycle count, the Figure-4 breakdown, the
// machine-wide counters and the Table-4 protocol percentages — and
// deliberately omits in-process-only artifacts (the live *core.Machine,
// captured traces).
//
// Serialized bytes are deterministic for a given Result: maps are the
// only unordered parts and encoding/json sorts map keys.
type RunRow struct {
	Key    string  `json:"key"`
	Spec   RunSpec `json:"spec"`
	Cycles int64   `json:"cycles"`
	// Breakdown is the average per-processor cycle split by category
	// (busy, cache, data, lock, barrier, protocol, handler).
	Breakdown map[string]float64 `json:"breakdown"`
	// Counters holds the non-zero machine-wide event counters.
	Counters map[string]int64 `json:"counters"`
	// ProtocolPct are the Table-4 numbers: percent of total processor
	// time in protocol activity and its diff/handler split.
	ProtocolPct struct {
		Total   float64 `json:"total"`
		Diff    float64 `json:"diff"`
		Handler float64 `json:"handler"`
	} `json:"protocolPct"`
	// Imbalance is max/mean across processors for the wait categories.
	Imbalance map[string]float64 `json:"imbalance"`
	// Consistency is the conformance checker's coverage summary when the
	// spec requested checking.
	Consistency *consistency.Summary `json:"consistency,omitempty"`
	// SeqCycles/Speedup are filled only when the producer also resolved
	// the sequential baseline (svmsim output, service speedup requests).
	SeqCycles int64   `json:"seqCycles,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

// NewRunRow flattens a Result into its machine-readable row.
func NewRunRow(res *Result) RunRow {
	row := RunRow{
		Key:       res.Spec.Key(),
		Spec:      res.Spec,
		Cycles:    res.Cycles,
		Breakdown: make(map[string]float64, stats.NumCategories),
		Counters:  make(map[string]int64),
		Imbalance: map[string]float64{
			stats.DataWait.String():    res.Stats.Imbalance(stats.DataWait),
			stats.LockWait.String():    res.Stats.Imbalance(stats.LockWait),
			stats.BarrierWait.String(): res.Stats.Imbalance(stats.BarrierWait),
		},
		Consistency: res.Consistency,
	}
	avg := res.Stats.AverageBreakdown()
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		row.Breakdown[c.String()] = avg[c]
	}
	for c := stats.Counter(0); c < stats.NumCounters; c++ {
		if v := res.Stats.TotalCount(c); v != 0 {
			row.Counters[c.String()] = v
		}
	}
	row.ProtocolPct.Total, row.ProtocolPct.Diff, row.ProtocolPct.Handler =
		res.Stats.ProtocolPercent()
	return row
}

// DecodeRow decodes a stored row and accepts it only if it is the row
// of spec.  A row that does not decode, or whose spec disagrees (a key
// collision or encoder drift), is refused: the caller recomputes.
func DecodeRow(payload []byte, spec RunSpec) (*RunRow, bool) {
	var row RunRow
	if json.Unmarshal(payload, &row) != nil || row.Spec != spec {
		return nil, false
	}
	return &row, true
}

// LoadRow reads spec's row from the persistent store under key.  It
// returns nil when st is nil, on a miss, and for an entry DecodeRow
// refuses: the caller recomputes.
func LoadRow(st *store.Store, key string, spec RunSpec) *RunRow {
	if st == nil {
		return nil
	}
	payload, ok := st.Get(key)
	if !ok {
		return nil
	}
	row, _ := DecodeRow(payload, spec)
	return row
}

// SaveRow writes row to the persistent store under key (a no-op when st
// is nil).  Store damage never fails the caller: a later reader just
// recomputes.
func SaveRow(st *store.Store, key string, row *RunRow) {
	if st == nil {
		return
	}
	if payload, err := json.Marshal(row); err == nil {
		_ = st.Put(key, payload)
	}
}

// WithSpeedup returns a copy of the row annotated with the sequential
// baseline's cycle count and the resulting speedup.
func (r RunRow) WithSpeedup(seqCycles int64) RunRow {
	r.SeqCycles = seqCycles
	if r.Cycles > 0 {
		r.Speedup = float64(seqCycles) / float64(r.Cycles)
	}
	return r
}

// WriteRunRowJSON writes the row as indented JSON followed by a newline
// (the svmsim -json output format).
func WriteRunRowJSON(w io.Writer, row RunRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(row)
}

// FormatRunRow renders a row as svmsim's text report: a title naming
// the run with its layer config label and scale name, the caller's
// notes one per line, then cycles, speedup, the average breakdown,
// protocol activity, the counters sorted by name, the checker's
// coverage and the wait imbalance.  A row read back from JSON renders
// the same text, so local and remote runs print one report.
func FormatRunRow(row RunRow, config, scale string, notes ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s, %d procs, config %s (scale %s)\n",
		row.Spec.App, row.Spec.Protocol, row.Spec.Procs, config, scale)
	for _, n := range notes {
		sb.WriteString(n + "\n")
	}
	fmt.Fprintf(&sb, "  cycles:   %d (sequential %d)\n", row.Cycles, row.SeqCycles)
	fmt.Fprintf(&sb, "  speedup:  %.2f\n", row.Speedup)
	parts := make([]string, 0, stats.NumCategories)
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		parts = append(parts, fmt.Sprintf("%s=%.0f", c, row.Breakdown[c.String()]))
	}
	fmt.Fprintf(&sb, "  breakdown (avg cycles/proc): %s\n", strings.Join(parts, " "))
	fmt.Fprintf(&sb, "  protocol activity: %.1f%% of time (diff %.1f%%, handler %.1f%%)\n",
		row.ProtocolPct.Total, row.ProtocolPct.Diff, row.ProtocolPct.Handler)
	names := make([]string, 0, len(row.Counters))
	for name := range row.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	parts = parts[:0]
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, row.Counters[name]))
	}
	fmt.Fprintf(&sb, "  counters: %s\n", strings.Join(parts, " "))
	if row.Consistency != nil {
		fmt.Fprintf(&sb, "  consistency: %s\n", row.Consistency)
	}
	fmt.Fprintf(&sb, "  imbalance: data %.2fx, lock %.2fx, barrier %.2fx\n",
		row.Imbalance[stats.DataWait.String()],
		row.Imbalance[stats.LockWait.String()],
		row.Imbalance[stats.BarrierWait.String()])
	return sb.String()
}
