package harness

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
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
// and drop rate (PPM; 0 = the clean fabric), all checked, through the
// session.  Points come back in grid order — seed-major, then protocol,
// then rate — regardless of execution parallelism.
// Consistency violations are reported in the point; any other failure
// aborts the sweep.
func (s *Session) LitmusSweep(baseSeed uint64, n int, protos []ProtocolKind, scale apps.Scale, procs int, dropPPMs []int64) ([]LitmusPoint, error) {
	if len(dropPPMs) == 0 {
		dropPPMs = []int64{0}
	}
	var specs []RunSpec
	var pts []LitmusPoint
	for i := 0; i < n; i++ {
		seed := baseSeed + uint64(i)
		for _, prot := range protos {
			for _, ppm := range dropPPMs {
				spec := LitmusSpec(seed, prot, scale, procs)
				if ppm > 0 {
					spec = FaultedSpec(spec, seed, ppm)
				}
				specs = append(specs, spec)
				pts = append(pts, LitmusPoint{Seed: seed, Proto: prot, DropPPM: ppm})
			}
		}
	}
	// Keep per-point errors: unlike RunAll, a violation in one cell
	// must not hide the rest of the ladder.
	results, errs := s.RunEach(context.Background(), specs)
	for i := range pts {
		if errs[i] != nil {
			var v *consistency.Violation
			if errors.As(errs[i], &v) {
				pts[i].Violation = v.Error()
				continue
			}
			return nil, fmt.Errorf("litmus sweep seed %d on %s (drop %d ppm): %w",
				pts[i].Seed, pts[i].Proto, pts[i].DropPPM, errs[i])
		}
		res := results[i]
		pts[i].Cycles = res.Cycles
		if c := res.Consistency; c != nil {
			pts[i].Loads, pts[i].Stores, pts[i].SyncOps = c.Loads, c.Stores, c.SyncOps
		}
	}
	return pts, nil
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

// WriteLitmusCSV emits one row per point:
// seed,protocol,drop_ppm,cycles,loads,stores,sync_ops,conforms.
func WriteLitmusCSV(w io.Writer, points []LitmusPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"seed", "protocol", "drop_ppm", "cycles", "loads", "stores", "sync_ops", "conforms",
	}); err != nil {
		return err
	}
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, p := range points {
		if err := cw.Write([]string{
			strconv.FormatUint(p.Seed, 10), string(p.Proto), n(p.DropPPM), n(p.Cycles),
			n(p.Loads), n(p.Stores), n(p.SyncOps), strconv.FormatBool(p.Conforms()),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
