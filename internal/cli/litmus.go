package cli

import (
	"context"
	"fmt"
	"io"

	"swsm/internal/apps"
	"swsm/internal/apps/litmus"
	"swsm/internal/harness"
)

// Litmus is one litmus ladder: N seeds from Seed across hlrc, lrc and
// sc, each at every rate of DropPPMs (none: the clean fabric only),
// all with the conformance checker on.
type Litmus struct {
	Seed     uint64
	N, Procs int
	Scale    apps.Scale
	DropPPMs []int64
	// CSV, when set, receives the points as harness.LitmusTable.
	CSV string
}

// Run resolves the ladder through source — a session's or a daemon
// client's points — and prints title, one line per point, and a
// minimal reproducer, shrunk in process, for every point that violated
// its consistency model.  It fails if any point did.
func (l Litmus) Run(ctx context.Context, w io.Writer, source harness.Source, title string) error {
	points, err := harness.LitmusSweep(ctx, source, l.Seed, l.N, []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC}, l.Scale, l.Procs, l.DropPPMs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprint(w, harness.FormatLitmus(points))
	bad := 0
	for _, p := range points {
		if p.Conforms() {
			continue
		}
		bad++
		spec := harness.LitmusSpec(p.Seed, p.Proto, l.Scale, l.Procs)
		if p.DropPPM > 0 {
			spec = harness.FaultedSpec(spec, p.Seed, p.DropPPM)
		}
		prog := litmus.Generate(p.Seed, l.Procs, l.Scale)
		if min := harness.ShrinkLitmus(spec, prog, nil); min != nil {
			fmt.Fprintf(w, "minimal reproducer for seed %d on %s (%d of %d ops):\n%s\n",
				p.Seed, p.Proto, min.Ops(), prog.Ops(), min)
		}
	}
	if l.CSV != "" {
		if err := WriteCSV(w, l.CSV, harness.LitmusTable(points)); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d litmus points violated their consistency model", bad, len(points))
	}
	fmt.Fprintf(w, "all %d points conform\n", len(points))
	return nil
}
