package harness

import (
	"encoding/csv"
	"fmt"
	"io"
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
// dropPPMs through the session.  Every faulted run is verified against
// the application's reference answer, so a point coming back at all
// certifies the reliability machinery preserved correctness at that
// fault rate.  Points are ordered app-major, then protocol, then drop
// rate — deterministic regardless of execution parallelism.
func (s *Session) DegradationSweep(appNames []string, protos []ProtocolKind, scale apps.Scale, procs int, seed uint64, dropPPMs []int64) ([]DegradationPoint, error) {
	type slot struct {
		app     string
		prot    ProtocolKind
		dropPPM int64
	}
	var specs []RunSpec
	var slots []slot
	for _, app := range appNames {
		for _, prot := range protos {
			base := DefaultSpec(app, prot)
			base.Scale = scale
			base.Procs = procs
			specs = append(specs, base)
			slots = append(slots, slot{app, prot, -1}) // clean baseline
			for _, ppm := range dropPPMs {
				specs = append(specs, FaultedSpec(base, seed, ppm))
				slots = append(slots, slot{app, prot, ppm})
			}
		}
	}
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("degradation sweep: %w", err)
	}
	var out []DegradationPoint
	var base int64
	for i, sl := range slots {
		res := results[i]
		if sl.dropPPM < 0 {
			base = res.Cycles
			continue
		}
		st := res.Stats
		p := DegradationPoint{
			App: sl.app, Proto: sl.prot, DropPPM: sl.dropPPM,
			Cycles: res.Cycles, BaseCycles: base,
			Retransmits: st.TotalCount(stats.Retransmits),
			Drops:       st.TotalCount(stats.MsgsDropped),
			Acks:        st.TotalCount(stats.AcksSent),
			Dups:        st.TotalCount(stats.DupsSuppressed),
		}
		if base > 0 {
			p.SlowdownPct = float64(res.Cycles-base) / float64(base) * 100
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

// WriteDegradationCSV emits one row per sweep point:
// app,protocol,drop_ppm,cycles,base_cycles,slowdown_pct,retransmits,drops,acks,dups.
func WriteDegradationCSV(w io.Writer, points []DegradationPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"app", "protocol", "drop_ppm", "cycles", "base_cycles",
		"slowdown_pct", "retransmits", "drops", "acks", "dups",
	}); err != nil {
		return err
	}
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, p := range points {
		if err := cw.Write([]string{
			p.App, string(p.Proto), n(p.DropPPM), n(p.Cycles), n(p.BaseCycles),
			strconv.FormatFloat(p.SlowdownPct, 'f', 4, 64),
			n(p.Retransmits), n(p.Drops), n(p.Acks), n(p.Dups),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
