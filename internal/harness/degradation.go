package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/fault"
	"swsm/internal/stats"
)

// The degradation sweep is the fault layer's headline experiment: sweep
// the wire drop rate for every (app, protocol) cell, verify that each
// faulted run still computes the fault-free answers (Run's built-in
// verification enforces this), and report how much the retransmit/ack
// machinery slows the system down — the measurable price of reliability
// the paper's zero-fault fabric never pays.

// DegradationPoint is one measurement of the drop-rate sweep.
type DegradationPoint struct {
	App     string
	Proto   ProtocolKind
	DropPPM int64
	// Cycles is the faulted run's parallel execution time; BaseCycles
	// the zero-fault run of the same spec.
	Cycles     int64
	BaseCycles int64
	// SlowdownPct is (Cycles-BaseCycles)/BaseCycles in percent.
	SlowdownPct float64
	// Transport activity the faults induced.
	Retransmits int64
	Drops       int64
	Acks        int64
	Dups        int64
}

// FaultedSpec returns spec with a drop-rate fault plan attached: seeded
// deterministic drops at dropPPM parts per million, routed through the
// reliable transport.
func FaultedSpec(spec RunSpec, seed uint64, dropPPM int64) RunSpec {
	spec.Fault = fault.Spec{Seed: seed, DropPPM: dropPPM, Reliable: true}
	return spec
}

// DegradationSweep measures slowdown vs drop rate over app x protocol x
// dropPPMs through src: each cell's clean run, then its faulted runs.
// Every faulted run is verified against the application's reference
// answer, so a point coming back at all certifies the reliability
// machinery preserved correctness at that fault rate.  Points are
// ordered app-major, then protocol, then drop rate — deterministic
// regardless of execution parallelism.
func DegradationSweep(ctx context.Context, src Source, appNames []string, protos []ProtocolKind, scale apps.Scale, procs int, seed uint64, dropPPMs []int64) ([]DegradationPoint, error) {
	var specs []RunSpec
	for _, app := range appNames {
		for _, prot := range protos {
			base := DefaultSpec(app, prot)
			base.Scale = scale
			base.Procs = procs
			specs = append(specs, base)
			for _, ppm := range dropPPMs {
				specs = append(specs, FaultedSpec(base, seed, ppm))
			}
		}
	}
	rows, err := resolve(ctx, src, specs)
	if err != nil {
		return nil, fmt.Errorf("degradation sweep: %w", err)
	}
	var out []DegradationPoint
	var base int64
	for _, r := range rows {
		if r.Spec.Fault == (fault.Spec{}) {
			base = r.Cycles
			continue
		}
		p := DegradationPoint{
			App: r.Spec.App, Proto: r.Spec.Protocol, DropPPM: r.Spec.Fault.DropPPM,
			Cycles: r.Cycles, BaseCycles: base,
			Retransmits: r.Counters[stats.Retransmits.String()],
			Drops:       r.Counters[stats.MsgsDropped.String()],
			Acks:        r.Counters[stats.AcksSent.String()],
			Dups:        r.Counters[stats.DupsSuppressed.String()],
		}
		if base > 0 {
			p.SlowdownPct = float64(r.Cycles-base) / float64(base) * 100
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatDegradation renders sweep points grouped per (app, protocol)
// row, one column per drop rate.
func FormatDegradation(points []DegradationPoint) string {
	var sb strings.Builder
	var curKey string
	for _, p := range points {
		key := p.App + "/" + string(p.Proto)
		if key != curKey {
			if curKey != "" {
				sb.WriteByte('\n')
			}
			curKey = key
			fmt.Fprintf(&sb, "  %-24s", key)
		}
		fmt.Fprintf(&sb, "  %s%%:%+.1f%% (rx %d)",
			strconv.FormatFloat(float64(p.DropPPM)/1e4, 'f', -1, 64),
			p.SlowdownPct, p.Retransmits)
	}
	if curKey != "" {
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DegradationTable holds one row per sweep point:
// app,protocol,drop_ppm,cycles,base_cycles,slowdown_pct,retransmits,drops,acks,dups.
func DegradationTable(points []DegradationPoint) *Table {
	t := &Table{Columns: []string{
		"app", "protocol", "drop_ppm", "cycles", "base_cycles",
		"slowdown_pct", "retransmits", "drops", "acks", "dups",
	}}
	for _, p := range points {
		t.Rows = append(t.Rows, []any{
			p.App, string(p.Proto), p.DropPPM, p.Cycles, p.BaseCycles,
			Float{p.SlowdownPct, 4}, p.Retransmits, p.Drops, p.Acks, p.Dups,
		})
	}
	return t
}
