package harness

import (
	"fmt"
	"sort"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/comm"
	"swsm/internal/proto"
	"swsm/internal/stats"
	"swsm/internal/trace"
)

// LayerConfig names one point of the paper's layer-cost grid: a
// communication parameter set (A, H, B, W, B+) paired with a protocol
// cost set (O, H, B).  The paper's bar labels compose them: "AO" is the
// base system, "BB" both layers idealized, "B+B" the limit
// configuration.
type LayerConfig struct {
	Comm  string // "A", "H", "B", "W", "B+"
	Costs string // "O", "H", "B"
}

// Label formats the configuration the way the paper labels its bars.
func (lc LayerConfig) Label() string { return lc.Comm + lc.Costs }

// Apply fills a RunSpec's layer parameters.
func (lc LayerConfig) Apply(spec *RunSpec) error {
	cp, err := comm.ParamsByName(lc.Comm)
	if err != nil {
		return err
	}
	costs, ok := proto.CostsByName(lc.Costs)
	if !ok {
		return fmt.Errorf("harness: unknown protocol cost set %q", lc.Costs)
	}
	spec.Comm = cp
	spec.Costs = costs
	return nil
}

// Figure3Configs is the configuration ladder of the paper's Figure 3
// speedup bars, best to worst: B+B, BB, AB, BO, AO (base), WO.
var Figure3Configs = []LayerConfig{
	{"B+", "B"}, {"B", "B"}, {"A", "B"}, {"B", "O"}, {"A", "O"}, {"W", "O"},
}

// AppBar is one application's full Figure-3 bar group.
type AppBar struct {
	App     string
	Ideal   float64 // algorithmic speedup on the ideal machine
	HLRC    map[string]float64
	SC      map[string]float64
	Results map[string]*Result // keyed "hlrc/AO", "sc/BB", ...
}

// configSlot names one (protocol, layer-config) cell of a sweep, used
// to map index-ordered session results back to their labels.
type configSlot struct {
	prot  ProtocolKind
	label string
}

// configSpecs expands the protocol x config grid into specs plus the
// slot bookkeeping that labels each index-aligned result.
func configSpecs(app string, scale apps.Scale, procs int, configs []LayerConfig) ([]RunSpec, []configSlot, error) {
	var specs []RunSpec
	var slots []configSlot
	for _, prot := range []ProtocolKind{HLRC, SC} {
		for _, lc := range configs {
			spec := DefaultSpec(app, prot)
			spec.Scale = scale
			spec.Procs = procs
			if err := lc.Apply(&spec); err != nil {
				return nil, nil, err
			}
			specs = append(specs, spec)
			slots = append(slots, configSlot{prot, lc.Label()})
		}
	}
	return specs, slots, nil
}

// TracedConfigSpecs expands the protocol x config grid into specs with
// tracing enabled, returning parallel label slices ("hlrc/AO", ...).
// The specs are deterministic and index-ordered, so serializing the
// runner's results in slice order yields byte-identical trace files
// regardless of execution parallelism.
func TracedConfigSpecs(app string, scale apps.Scale, procs int, configs []LayerConfig, sample int64) ([]RunSpec, []string, error) {
	specs, slots, err := configSpecs(app, scale, procs, configs)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, len(specs))
	for i := range specs {
		specs[i].Trace = true
		specs[i].TraceSample = sample
		labels[i] = string(slots[i].prot) + "/" + slots[i].label
	}
	return specs, labels, nil
}

// TraceRuns pairs index-aligned labels and results into the trace
// package's serialization input (skipping untraced results).
func TraceRuns(labels []string, results []*Result) []trace.Run {
	runs := make([]trace.Run, 0, len(results))
	for i, res := range results {
		if res == nil || res.Trace == nil {
			continue
		}
		runs = append(runs, trace.Run{Label: labels[i], Data: res.Trace})
	}
	return runs
}

// Figure3Specs expands one application's Figure-3 grid — the parallel
// ideal machine plus the protocol x configuration ladder — into
// index-aligned specs and labels ("ideal", "hlrc/AO", "sc/B+B", ...).
// This is the unit both svmbench -json renders locally and svmbench
// -server submits to the experiment service; keeping one expansion
// guarantees remote sweeps hit the same content keys as local runs.
func Figure3Specs(app string, scale apps.Scale, procs int, configs []LayerConfig) ([]RunSpec, []string, error) {
	gridSpecs, slots, err := configSpecs(app, scale, procs, configs)
	if err != nil {
		return nil, nil, err
	}
	specs := append([]RunSpec{idealSpec(app, scale, procs)}, gridSpecs...)
	labels := make([]string, 0, len(specs))
	labels = append(labels, "ideal")
	for _, sl := range slots {
		labels = append(labels, string(sl.prot)+"/"+sl.label)
	}
	return specs, labels, nil
}

// Figure3 runs the speedup ladder for one application at the given
// scale and processor count.  All runs — sequential baseline, ideal
// machine, and the protocol x config grid — are scheduled at once;
// results are collected by index, so the output is identical at any
// parallelism.
func (s *Session) Figure3(app string, scale apps.Scale, procs int, configs []LayerConfig) (*AppBar, error) {
	gridSpecs, slots, err := configSpecs(app, scale, procs, configs)
	if err != nil {
		return nil, err
	}
	specs := append([]RunSpec{baselineSpec(app, scale, true), idealSpec(app, scale, procs)}, gridSpecs...)
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure 3 (%s): %w", app, err)
	}
	seq := results[0].Cycles
	bar := &AppBar{
		App:  app,
		HLRC: map[string]float64{}, SC: map[string]float64{},
		Results: map[string]*Result{},
	}
	bar.Ideal = float64(seq) / float64(results[1].Cycles)
	bar.Results["ideal"] = results[1]
	for i, sl := range slots {
		res := results[2+i]
		sp := float64(seq) / float64(res.Cycles)
		bar.Results[string(sl.prot)+"/"+sl.label] = res
		if sl.prot == HLRC {
			bar.HLRC[sl.label] = sp
		} else {
			bar.SC[sl.label] = sp
		}
	}
	return bar, nil
}

// FormatFigure3 renders one app's bars as the paper's figure row.
func FormatFigure3(bar *AppBar, configs []LayerConfig) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (Ideal %.2f)\n", bar.App, bar.Ideal)
	fmt.Fprintf(&sb, "  %-6s", "cfg")
	for _, lc := range configs {
		fmt.Fprintf(&sb, "%8s", lc.Label())
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  %-6s", "HLRC")
	for _, lc := range configs {
		fmt.Fprintf(&sb, "%8.2f", bar.HLRC[lc.Label()])
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  %-6s", "SC")
	for _, lc := range configs {
		fmt.Fprintf(&sb, "%8.2f", bar.SC[lc.Label()])
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Figure4Row is one execution-time breakdown bar (averaged over procs,
// normalized to the AO configuration's total, as the paper presents).
type Figure4Row struct {
	App    string
	Proto  ProtocolKind
	Config string
	// Fractions of per-processor time by category.
	Breakdown [stats.NumCategories]float64
	Cycles    int64
}

// Figure4 computes breakdowns for an application across configurations;
// rows come back in protocol x config order.
func (s *Session) Figure4(app string, scale apps.Scale, procs int, configs []LayerConfig) ([]Figure4Row, error) {
	specs, slots, err := configSpecs(app, scale, procs, configs)
	if err != nil {
		return nil, err
	}
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure 4 (%s): %w", app, err)
	}
	out := make([]Figure4Row, 0, len(results))
	for i, sl := range slots {
		res := results[i]
		row := Figure4Row{App: app, Proto: sl.prot, Config: sl.label, Cycles: res.Cycles}
		avg := res.Stats.AverageBreakdown()
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			row.Breakdown[c] = avg[c]
		}
		out = append(out, row)
	}
	return out, nil
}

// PerProcBreakdown captures what the paper's analysis relies on ("to
// analyze the results we always refer to per-processor breakdowns"):
// each processor's time by category for one run.
func PerProcBreakdown(res *Result) string {
	var sb strings.Builder
	st := res.Stats
	fmt.Fprintf(&sb, "  %-5s", "proc")
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Fprintf(&sb, "%10s", c.String())
	}
	fmt.Fprintf(&sb, "%10s\n", "total")
	for i := range st.Procs {
		fmt.Fprintf(&sb, "  %-5d", i)
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			fmt.Fprintf(&sb, "%10d", st.Procs[i].Time[c])
		}
		fmt.Fprintf(&sb, "%10d\n", st.Procs[i].Total())
	}
	return sb.String()
}

// FormatFigure4 renders breakdown rows.
func FormatFigure4(rows []Figure4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-6s %-5s %10s", "proto", "cfg", "cycles")
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Fprintf(&sb, "%9s", c.String())
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-6s %-5s %10d", r.Proto, r.Config, r.Cycles)
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			fmt.Fprintf(&sb, "%9.0f", r.Breakdown[c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Figure5Point is one single-parameter sweep measurement.
type Figure5Point struct {
	Param   string
	Factor  string // "0", "1/2", "1" (base), "2"
	Proto   ProtocolKind
	Speedup float64
}

// Figure5Params are the individually varied communication parameters.
var Figure5Params = []string{"overhead", "occupancy", "bandwidth", "handling"}

// vary builds a Params with only one communication parameter changed by
// scale num/den (0/1 = idealized).
func vary(base comm.Params, param string, num, den int64) comm.Params {
	p := base
	switch param {
	case "overhead":
		p.HostOverhead = base.HostOverhead * num / den
	case "occupancy":
		p.NIOccupancy = base.NIOccupancy * num / den
	case "handling":
		p.MsgHandling = base.MsgHandling * num / den
	case "bandwidth":
		if num == 0 {
			p.IOBusBytesNum = 0 // infinite
		} else {
			// Cost per byte scales by num/den.
			p.IOBusBytesNum = base.IOBusBytesNum * den
			p.IOBusBytesDen = base.IOBusBytesDen * num
		}
	default:
		panic("harness: unknown comm parameter " + param)
	}
	return p
}

// Figure5 sweeps one communication parameter at a time (others at
// achievable values), for both protocols.  The baseline and every
// (protocol, parameter, factor) run are scheduled together; the x1
// point of each parameter is the same memo key (the unmodified
// achievable Params), so the memo collapses those duplicates to one run
// per protocol.
func (s *Session) Figure5(app string, scale apps.Scale, procs int) ([]Figure5Point, error) {
	factors := []struct {
		label    string
		num, den int64
	}{{"0", 0, 1}, {"1/2", 1, 2}, {"1", 1, 1}, {"2", 2, 1}}
	type slot struct {
		param, factor string
		prot          ProtocolKind
	}
	specs := []RunSpec{baselineSpec(app, scale, true)}
	var slots []slot
	for _, prot := range []ProtocolKind{HLRC, SC} {
		for _, param := range Figure5Params {
			for _, f := range factors {
				spec := DefaultSpec(app, prot)
				spec.Scale = scale
				spec.Procs = procs
				spec.Comm = vary(comm.Achievable(), param, f.num, f.den)
				specs = append(specs, spec)
				slots = append(slots, slot{param, f.label, prot})
			}
		}
	}
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure 5 (%s): %w", app, err)
	}
	seq := results[0].Cycles
	out := make([]Figure5Point, 0, len(slots))
	for i, sl := range slots {
		out = append(out, Figure5Point{
			Param: sl.param, Factor: sl.factor, Proto: sl.prot,
			Speedup: float64(seq) / float64(results[1+i].Cycles),
		})
	}
	return out, nil
}

// FormatFigure5 renders sweep results grouped by parameter.
func FormatFigure5(points []Figure5Point) string {
	var sb strings.Builder
	byKey := map[string][]Figure5Point{}
	var keys []string
	for _, p := range points {
		k := p.Param + "/" + string(p.Proto)
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], p)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-20s", k)
		for _, p := range byKey[k] {
			fmt.Fprintf(&sb, "  x%s=%5.2f", p.Factor, p.Speedup)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
