package harness

import (
	"context"
	"fmt"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/hetero"
	"swsm/internal/stats"
)

// The heterogeneity sweep is the hetero layer's headline experiment:
// sweep machine skew x placement policy x protocol for every app and
// find where the paper's uniform-cluster conclusions flip — the skews
// under which the protocol that wins on identical nodes loses, and
// whether adaptive home placement buys the difference back.

// PlacementNames lists the placement policies the sweep and the
// explorer enumerate, in canonical order.  "app" honors application
// data placement (the paper's decomposed placement); "rr" is the static
// round-robin baseline; "adaptive" migrates page homes online;
// "adaptive+grain" additionally demotes falsely-shared pages to
// fine-grain coherence units.  The adaptive policies are HLRC-only:
// under other protocols they degrade to "rr".
func PlacementNames() []string {
	return []string{"app", "rr", "adaptive", "adaptive+grain"}
}

// HeteroSpec composes a named skew preset with a named placement
// policy into the hetero.Spec a RunSpec carries.
func HeteroSpec(skew, placement string) (hetero.Spec, error) {
	hs, err := hetero.PresetByName(skew)
	if err != nil {
		return hetero.Spec{}, err
	}
	switch placement {
	case "", "app":
	case "rr":
		hs.Placement = hetero.PlaceRR
	case "adaptive":
		hs.Placement = hetero.PlaceAdaptive
	case "adaptive+grain":
		hs.Placement = hetero.PlaceAdaptive
		hs.Grain = hetero.GrainAdaptive
	default:
		return hetero.Spec{}, fmt.Errorf("harness: unknown placement %q (want %s)",
			placement, strings.Join(PlacementNames(), ", "))
	}
	return hs, nil
}

// HeteroPoint is one measurement of the heterogeneity sweep.
type HeteroPoint struct {
	App       string
	Skew      string // hetero.PresetNames entry
	Placement string // PlacementNames entry
	Proto     ProtocolKind
	Cycles    int64
	// Speedup is sequential-baseline cycles / Cycles (same denominator
	// as every speedup in the paper).
	Speedup float64
	// Adaptive-policy activity (zero under static placements).
	Rehomed int64
	Demoted int64
}

// HeterogeneitySweep measures every app x skew x placement x protocol
// cell through src, with each app's baseline the speedups divide by.
// Points come back in app-major, then skew, then placement, then
// protocol order — deterministic regardless of execution parallelism.
func HeterogeneitySweep(ctx context.Context, src Source, appNames []string, protos []ProtocolKind, scale apps.Scale, procs int, skews, placements []string) ([]HeteroPoint, error) {
	var specs []RunSpec
	var points []HeteroPoint
	for _, app := range appNames {
		for _, skew := range skews {
			for _, pl := range placements {
				hs, err := HeteroSpec(skew, pl)
				if err != nil {
					return nil, err
				}
				for _, prot := range protos {
					spec := DefaultSpec(app, prot)
					spec.Scale = scale
					spec.Procs = procs
					spec.Hetero = hs
					specs = append(specs, spec)
					points = append(points, HeteroPoint{App: app, Skew: skew, Placement: pl, Proto: prot})
				}
			}
		}
	}
	for _, app := range appNames {
		specs = append(specs, BaselineSpec(app, scale, true))
	}
	rows, err := resolve(ctx, src, specs)
	if err != nil {
		return nil, fmt.Errorf("heterogeneity sweep: %w", err)
	}
	for i, r := range rows[:len(points)] {
		points[i].Cycles = r.Cycles
		points[i].Speedup = r.Speedup
		points[i].Rehomed = r.Counters[stats.PagesRehomed.String()]
		points[i].Demoted = r.Counters[stats.PagesDemoted.String()]
	}
	return points, nil
}

// HeteroFlip is one (app, placement) row of the verdict table: the
// winning protocol on the uniform machine vs under one skew.  Flipped
// marks the configurations where the paper's uniform-cluster conclusion
// no longer holds.
type HeteroFlip struct {
	App         string
	Placement   string
	Skew        string
	UniformBest ProtocolKind
	SkewBest    ProtocolKind
	Flipped     bool
}

// HeteroVerdicts derives the protocol-verdict table from sweep points:
// for every (app, placement) it compares the best protocol under each
// non-uniform skew against the best on the uniform machine.  Requires
// the sweep to have included the "uniform" skew; cells missing from the
// sweep are skipped.
func HeteroVerdicts(points []HeteroPoint) []HeteroFlip {
	type cell struct{ app, skew, pl string }
	best := make(map[cell]HeteroPoint)
	var order []cell
	for _, p := range points {
		c := cell{p.App, p.Skew, p.Placement}
		b, ok := best[c]
		if !ok {
			order = append(order, c)
		}
		if !ok || p.Cycles < b.Cycles {
			best[c] = p
		}
	}
	var out []HeteroFlip
	for _, c := range order {
		if c.skew == "uniform" {
			continue
		}
		uni, ok := best[cell{c.app, "uniform", c.pl}]
		if !ok {
			continue
		}
		sk := best[c]
		out = append(out, HeteroFlip{
			App: c.app, Placement: c.pl, Skew: c.skew,
			UniformBest: uni.Proto, SkewBest: sk.Proto,
			Flipped: uni.Proto != sk.Proto,
		})
	}
	return out
}

// FormatHeterogeneity renders sweep points grouped per (app, skew) row,
// one column per placement/protocol, followed by the verdict table.
func FormatHeterogeneity(points []HeteroPoint) string {
	var sb strings.Builder
	var curKey string
	for _, p := range points {
		key := p.App + "/" + p.Skew
		if key != curKey {
			if curKey != "" {
				sb.WriteByte('\n')
			}
			curKey = key
			fmt.Fprintf(&sb, "  %-20s", key)
		}
		fmt.Fprintf(&sb, "  %s/%s:%.2fx", p.Placement, p.Proto, p.Speedup)
		if p.Rehomed > 0 || p.Demoted > 0 {
			fmt.Fprintf(&sb, " (rehomed %d, demoted %d)", p.Rehomed, p.Demoted)
		}
	}
	if curKey != "" {
		sb.WriteByte('\n')
	}
	for _, f := range HeteroVerdicts(points) {
		if !f.Flipped {
			continue
		}
		fmt.Fprintf(&sb, "  FLIP %s placement=%s: %s wins uniform, %s wins under %s\n",
			f.App, f.Placement, f.UniformBest, f.SkewBest, f.Skew)
	}
	return sb.String()
}

// HeterogeneityTable holds one row per sweep point:
// app,skew,placement,protocol,cycles,speedup,pages_rehomed,pages_demoted,
// uniform_best,flipped.  The last two columns carry the verdict of the
// point's (app, placement, skew) cell so a flip is visible on the row
// itself; both are empty for a cell without a verdict.
func HeterogeneityTable(points []HeteroPoint) *Table {
	verdicts := make(map[[3]string]HeteroFlip)
	for _, f := range HeteroVerdicts(points) {
		verdicts[[3]string{f.App, f.Skew, f.Placement}] = f
	}
	t := &Table{Columns: []string{
		"app", "skew", "placement", "protocol", "cycles", "speedup",
		"pages_rehomed", "pages_demoted", "uniform_best", "flipped",
	}}
	for _, p := range points {
		var uniBest, flipped any = "", ""
		if f, ok := verdicts[[3]string{p.App, p.Skew, p.Placement}]; ok {
			uniBest, flipped = string(f.UniformBest), f.Flipped
		}
		t.Rows = append(t.Rows, []any{
			p.App, p.Skew, p.Placement, string(p.Proto), p.Cycles, Float{p.Speedup, 4},
			p.Rehomed, p.Demoted, uniBest, flipped,
		})
	}
	return t
}
