package harness

import (
	"fmt"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/comm"
	"swsm/internal/proto"
)

// Table1 renders the applications table: name, problem size (ours and
// the paper's), and the Shasta software-instrumentation cost from the
// paper's Table 1 (which we report but — like the paper — do not charge,
// since SC assumes free hardware access control).
func Table1() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-28s %-20s %s\n", "Application", "Problem size (scaled)", "Paper size", "Instrum. cost")
	for _, name := range apps.Names() {
		info, _ := apps.Lookup(name)
		if info.RestructuredOf != "" {
			continue // Table 1 lists originals; restructured share sizes
		}
		fmt.Fprintf(&sb, "%-16s %-28s %-20s %d%%\n",
			info.Name, info.BaseSize, info.PaperSize, info.InstrumentationPct)
	}
	return sb.String()
}

// Table2 renders the communication parameter sets.
func Table2() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %12s %12s %12s %12s %12s\n",
		"Parameter", "Achievable", "Best", "Halfway", "Worse", "B+")
	sets := []comm.Params{comm.Achievable(), comm.Best(), comm.Halfway(), comm.Worse(), comm.BetterThanBest()}
	row := func(name string, get func(comm.Params) string) {
		fmt.Fprintf(&sb, "%-22s", name)
		for _, p := range sets {
			fmt.Fprintf(&sb, " %12s", get(p))
		}
		sb.WriteByte('\n')
	}
	row("Host overhead (cy)", func(p comm.Params) string { return fmt.Sprint(p.HostOverhead) })
	row("NI occupancy (cy/pkt)", func(p comm.Params) string { return fmt.Sprint(p.NIOccupancy) })
	row("Msg handling (cy)", func(p comm.Params) string { return fmt.Sprint(p.MsgHandling) })
	row("Link latency (cy)", func(p comm.Params) string { return fmt.Sprint(p.LinkLatency) })
	row("I/O bus (MB/s@200MHz)", func(p comm.Params) string {
		mb := p.BandwidthMBs()
		if mb < 0 {
			return "inf"
		}
		return fmt.Sprintf("%.0f", mb)
	})
	return sb.String()
}

// Table3 renders the protocol cost sets.
func Table3() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-26s %10s %10s %10s   %s\n", "Parameter", "Original", "Halfway", "Best", "Units")
	sets := []proto.Costs{proto.OriginalCosts(), proto.HalfwayCosts(), proto.BestCosts()}
	row := func(name, units string, get func(proto.Costs) string) {
		fmt.Fprintf(&sb, "%-26s", name)
		for _, c := range sets {
			fmt.Fprintf(&sb, " %10s", get(c))
		}
		fmt.Fprintf(&sb, "   %s\n", units)
	}
	q4 := func(v int64) string { return fmt.Sprintf("%.2f", float64(v)/4) }
	row("Page protection", "cycles/page", func(c proto.Costs) string { return fmt.Sprint(c.PageProtect) })
	row("  (call startup)", "cycles/call", func(c proto.Costs) string { return fmt.Sprint(c.PageProtectStartup) })
	row("Diff creation (compare)", "cycles/word", func(c proto.Costs) string { return q4(c.DiffCompareQ4) })
	row("Diff creation (write)", "cycles/word", func(c proto.Costs) string { return q4(c.DiffWriteQ4) })
	row("Diff application", "cycles/word", func(c proto.Costs) string { return q4(c.DiffApplyQ4) })
	row("Twin creation", "cycles/word", func(c proto.Costs) string { return q4(c.TwinQ4) })
	row("Handler cost", "cycles + x", func(c proto.Costs) string { return fmt.Sprint(c.HandlerBase) })
	row("  (per list element)", "cycles/item", func(c proto.Costs) string { return fmt.Sprint(c.HandlerPerItem) })
	row("Fault entry", "cycles", func(c proto.Costs) string { return fmt.Sprint(c.FaultBase) })
	return sb.String()
}

// Table4Row is one application's protocol-activity split under HLRC at
// the base (AO) configuration.
type Table4Row struct {
	App        string
	TotalPct   float64
	HandlerPct float64
	DiffPct    float64
}

// Table4 measures the percentage of processor time spent in protocol
// activity and its split into diff computation and handler execution
// (HLRC, base configuration), for every application; rows come back in
// apps.Names() order.
func (s *Session) Table4(scale apps.Scale, procs int) ([]Table4Row, error) {
	names := apps.Names()
	specs := make([]RunSpec, len(names))
	for i, name := range names {
		spec := DefaultSpec(name, HLRC)
		spec.Scale = scale
		spec.Procs = procs
		specs[i] = spec
	}
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("table 4: %w", err)
	}
	rows := make([]Table4Row, 0, len(names))
	for i, name := range names {
		total, diff, handler := results[i].Stats.ProtocolPercent()
		rows = append(rows, Table4Row{App: name, TotalPct: total, DiffPct: diff, HandlerPct: handler})
	}
	return rows, nil
}

// FormatTable4 renders the protocol-activity table.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %8s %10s %10s\n", "Application", "Total%", "Handler%", "DiffComp%")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %8.1f %10.1f %10.1f\n", r.App, r.TotalPct, r.HandlerPct, r.DiffPct)
	}
	return sb.String()
}

// Table5Row summarizes, for one application under HLRC, which system
// layer matters more from the base system, whether halfway-comm beats
// best-protocol, and the cheapest Figure-3 configuration reaching half
// the ideal speedup (the paper's "what does it take" column).
type Table5Row struct {
	App string
	// CommFirst: improving communication alone (BO) gains more than
	// improving protocol alone (AB).
	CommFirst bool
	// HBBeatsBO: halfway communication with best protocol beats best
	// communication with original protocol.
	HBBeatsBO bool
	// Needed is the first configuration on the ladder AO, AB, BO, BB, B+B
	// achieving at least half the ideal speedup ("-" if none).
	Needed string
	// Speedups for reference.
	AO, AB, BO, HB, BB, BPlusB, Ideal float64
}

// Table5 computes the per-application summary for HLRC.  It schedules
// every application's full run set — sequential baseline, ideal
// machine, and the six-configuration HLRC ladder — in one batch over
// the session, then assembles the rows from the index-ordered results.
func (s *Session) Table5(scale apps.Scale, procs int) ([]Table5Row, error) {
	ladder := []LayerConfig{{"A", "O"}, {"A", "B"}, {"B", "O"}, {"H", "B"}, {"B", "B"}, {"B+", "B"}}
	names := apps.Names()
	stride := 2 + len(ladder) // baseline, ideal, ladder per app
	specs := make([]RunSpec, 0, len(names)*stride)
	for _, name := range names {
		specs = append(specs, baselineSpec(name, scale, true), idealSpec(name, scale, procs))
		for _, lc := range ladder {
			spec := DefaultSpec(name, HLRC)
			spec.Scale = scale
			spec.Procs = procs
			if err := lc.Apply(&spec); err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("table 5: %w", err)
	}
	rows := make([]Table5Row, 0, len(names))
	for ai, name := range names {
		base := results[ai*stride : (ai+1)*stride]
		seq := base[0].Cycles
		sp := map[string]float64{}
		for li, lc := range ladder {
			sp[lc.Label()] = float64(seq) / float64(base[2+li].Cycles)
		}
		row := Table5Row{
			App:       name,
			CommFirst: sp["BO"] >= sp["AB"],
			HBBeatsBO: sp["HB"] > sp["BO"],
			AO:        sp["AO"], AB: sp["AB"], BO: sp["BO"], HB: sp["HB"],
			BB: sp["BB"], BPlusB: sp["B+B"],
			Ideal: float64(seq) / float64(base[1].Cycles),
		}
		row.Needed = "-"
		for _, label := range []string{"AO", "AB", "BO", "BB", "B+B"} {
			if sp[label] >= row.Ideal/2 {
				row.Needed = label
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable5 renders the summary table.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s %8s %6s %6s %6s %6s %6s %6s %6s\n",
		"Application", "comm-first", "HB>BO", "needs", "AO", "AB", "BO", "HB", "BB", "B+B", "Ideal")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10v %10v %8s %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			r.App, r.CommFirst, r.HBBeatsBO, r.Needed, r.AO, r.AB, r.BO, r.HB, r.BB, r.BPlusB, r.Ideal)
	}
	return sb.String()
}
