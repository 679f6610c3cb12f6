package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
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
// cell through the session.  Points come back in app-major, then skew,
// then placement, then protocol order — deterministic regardless of
// execution parallelism.
func (s *Session) HeterogeneitySweep(appNames []string, protos []ProtocolKind, scale apps.Scale, procs int, skews, placements []string) ([]HeteroPoint, error) {
	type slot struct {
		app, skew, placement string
		prot                 ProtocolKind
	}
	var specs []RunSpec
	var slots []slot
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
					slots = append(slots, slot{app, skew, pl, prot})
				}
			}
		}
	}
	results, err := s.RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("heterogeneity sweep: %w", err)
	}
	out := make([]HeteroPoint, len(slots))
	for i, sl := range slots {
		res := results[i]
		seq, err := s.SequentialBaseline(sl.app, scale, specs[i].CacheEnabled)
		if err != nil {
			return nil, fmt.Errorf("heterogeneity sweep: baseline %s: %w", sl.app, err)
		}
		out[i] = HeteroPoint{
			App: sl.app, Skew: sl.skew, Placement: sl.placement, Proto: sl.prot,
			Cycles:  res.Cycles,
			Speedup: float64(seq) / float64(res.Cycles),
			Rehomed: res.Stats.TotalCount(stats.PagesRehomed),
			Demoted: res.Stats.TotalCount(stats.PagesDemoted),
		}
	}
	return out, nil
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

// WriteHeterogeneityCSV emits one row per sweep point:
// app,skew,placement,protocol,cycles,speedup,pages_rehomed,pages_demoted,
// uniform_best,flipped.  The last two columns carry the verdict of the
// point's (app, placement, skew) cell so a flip is visible on the row
// itself.
func WriteHeterogeneityCSV(w io.Writer, points []HeteroPoint) error {
	verdicts := make(map[[3]string]HeteroFlip)
	for _, f := range HeteroVerdicts(points) {
		verdicts[[3]string{f.App, f.Skew, f.Placement}] = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"app", "skew", "placement", "protocol", "cycles", "speedup",
		"pages_rehomed", "pages_demoted", "uniform_best", "flipped",
	}); err != nil {
		return err
	}
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, p := range points {
		uniBest, flipped := "", ""
		if f, ok := verdicts[[3]string{p.App, p.Skew, p.Placement}]; ok {
			uniBest = string(f.UniformBest)
			flipped = strconv.FormatBool(f.Flipped)
		}
		if err := cw.Write([]string{
			p.App, p.Skew, p.Placement, string(p.Proto), n(p.Cycles),
			strconv.FormatFloat(p.Speedup, 'f', 4, 64),
			n(p.Rehomed), n(p.Demoted), uniBest, flipped,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
