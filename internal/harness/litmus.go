package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/apps/litmus"
	"swsm/internal/consistency"
	"swsm/internal/proto"
)

// The litmus sweep is the correctness layer's headline experiment: run a
// ladder of seeded random load/store/lock/barrier programs across the
// protocol grid (optionally under injected faults) with the conformance
// checker on, so every load of every run is verified against its
// protocol's declared consistency model — not just the end-to-end
// answer.

// LitmusPoint is one (seed, protocol, fault-rate) cell of the sweep.
type LitmusPoint struct {
	Seed    uint64
	Proto   ProtocolKind
	DropPPM int64
	Cycles  int64
	// Checker coverage: word-granularity loads/stores verified and sync
	// operations ordered.
	Loads   int64
	Stores  int64
	SyncOps int64
	// Violation is empty when the run conforms; otherwise the checker's
	// full report.  Application-level failures (lost writes under
	// faults) abort the sweep instead — those are transport bugs, not
	// consistency results.
	Violation string
}

// Conforms reports whether the point passed the checker.
func (p LitmusPoint) Conforms() bool { return p.Violation == "" }

// LitmusSpec builds the checked RunSpec for one litmus seed.
func LitmusSpec(seed uint64, prot ProtocolKind, scale apps.Scale, procs int) RunSpec {
	spec := DefaultSpec(litmus.Name(seed), prot)
	spec.Scale = scale
	spec.Procs = procs
	spec.Check = true
	return spec
}

// LitmusSweep runs seeds baseSeed..baseSeed+n-1 against every protocol
// and drop rate (PPM; 0 = the clean fabric), all checked, through src.
// Points come back in grid order — seed-major, then protocol, then
// rate — regardless of execution parallelism.  Consistency violations
// are reported in the point; any other failure aborts the sweep.
func LitmusSweep(ctx context.Context, src Source, baseSeed uint64, n int, protos []ProtocolKind, scale apps.Scale, procs int, dropPPMs []int64) ([]LitmusPoint, error) {
	if len(dropPPMs) == 0 {
		dropPPMs = []int64{0}
	}
	var specs []RunSpec
	var points []LitmusPoint
	for i := 0; i < n; i++ {
		seed := baseSeed + uint64(i)
		for _, prot := range protos {
			for _, ppm := range dropPPMs {
				spec := LitmusSpec(seed, prot, scale, procs)
				if ppm > 0 {
					spec = FaultedSpec(spec, seed, ppm)
				}
				specs = append(specs, spec)
				points = append(points, LitmusPoint{Seed: seed, Proto: prot, DropPPM: ppm})
			}
		}
	}
	pts, err := src(ctx, specs)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if f := pts[i].Failure; f != "" {
			report, ok := violationReport(specs[i], f)
			if !ok {
				return nil, fmt.Errorf("litmus sweep seed %d on %s (drop %d ppm): %s",
					p.Seed, p.Proto, p.DropPPM, f)
			}
			points[i].Violation = report
			continue
		}
		points[i].Cycles = pts[i].Row.Cycles
		if c := pts[i].Row.Consistency; c != nil {
			points[i].Loads, points[i].Stores, points[i].SyncOps = c.Loads, c.Stores, c.SyncOps
		}
	}
	return points, nil
}

// violationReport decides whether failure, the text of a failed run of
// spec from either point source, is a consistency violation, and if so
// returns the checker's report: the text of the *consistency.Violation
// that RunInstance wrapped.
func violationReport(spec RunSpec, failure string) (string, bool) {
	report, ok := strings.CutPrefix(failure, fmt.Sprintf("harness: %s on %s: ", spec.App, spec.Protocol))
	return report, ok && strings.HasPrefix(report, "consistency violation (")
}

// ShrinkLitmus minimizes a litmus program that fails the checker under
// spec: each shrink candidate re-runs through RunInstance (bypassing the
// registry and memoization — candidates are one-offs) and a removal is
// kept only while the checker still reports a violation.  newProt
// substitutes the protocol under test (the known-bad oracle); nil uses
// spec.Protocol.  Returns the minimal program, or nil if the original
// does not actually fail.
func ShrinkLitmus(spec RunSpec, prog *litmus.Program, newProt func() proto.Protocol) *litmus.Program {
	spec.Check = true
	fails := func(cand *litmus.Program) bool {
		_, err := RunInstance(spec, cand, newProt)
		var v *consistency.Violation
		return errors.As(err, &v)
	}
	if !fails(prog) {
		return nil
	}
	return litmus.Shrink(prog, fails)
}

// FormatLitmus renders sweep points one line per cell.
func FormatLitmus(points []LitmusPoint) string {
	var sb strings.Builder
	for _, p := range points {
		status := "ok"
		if !p.Conforms() {
			status = "VIOLATION"
		}
		fmt.Fprintf(&sb, "  seed %-6d %-6s drop %-6d  %12d cycles  %6d loads %6d stores %4d syncs  %s\n",
			p.Seed, p.Proto, p.DropPPM, p.Cycles, p.Loads, p.Stores, p.SyncOps, status)
		if !p.Conforms() {
			fmt.Fprintf(&sb, "    %s\n", strings.ReplaceAll(p.Violation, "\n", "\n    "))
		}
	}
	return sb.String()
}

// LitmusTable holds one row per point:
// seed,protocol,drop_ppm,cycles,loads,stores,sync_ops,conforms.
func LitmusTable(points []LitmusPoint) *Table {
	t := &Table{Columns: []string{
		"seed", "protocol", "drop_ppm", "cycles", "loads", "stores", "sync_ops", "conforms",
	}}
	for _, p := range points {
		t.Rows = append(t.Rows, []any{
			p.Seed, string(p.Proto), p.DropPPM, p.Cycles, p.Loads, p.Stores, p.SyncOps, p.Conforms(),
		})
	}
	return t
}
