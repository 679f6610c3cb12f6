// Package harness assembles machines, protocols and applications into
// the paper's experiments: the layer-cost configuration grid (A/H/B/W/B+
// communication x O/H/B protocol), the speedup and breakdown figures,
// and the tables.
package harness

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"swsm/internal/apps"
	"swsm/internal/comm"
	"swsm/internal/consistency"
	"swsm/internal/core"
	"swsm/internal/fault"
	"swsm/internal/hetero"
	"swsm/internal/obs"
	"swsm/internal/proto"
	"swsm/internal/proto/hlrc"
	"swsm/internal/proto/ideal"
	"swsm/internal/proto/lrc"
	"swsm/internal/proto/scfg"
	"swsm/internal/stats"
	"swsm/internal/trace"
)

// ProtocolKind names a protocol family.
type ProtocolKind string

// The protocol families of the study, plus the classic-LRC baseline
// extension (distributed diffs fetched on fault, TreadMarks style).
const (
	HLRC  ProtocolKind = "hlrc"
	SC    ProtocolKind = "sc"
	LRC   ProtocolKind = "lrc"
	Ideal ProtocolKind = "ideal"
)

// RunSpec describes one simulation run.
type RunSpec struct {
	App      string
	Scale    apps.Scale
	Protocol ProtocolKind
	Procs    int
	Comm     comm.Params
	Costs    proto.Costs
	// SCBlockOverride, if nonzero, replaces the application's preferred
	// SC granularity (used by the granularity ablation).
	SCBlockOverride int
	// CacheEnabled toggles the node memory hierarchy (on by default via
	// DefaultSpec).
	CacheEnabled bool
	// PollQuantum overrides the back-edge polling granularity (0 =
	// default).
	PollQuantum int64
	// DisablePlacement leaves every page/block home round-robin instead
	// of honoring application data placement (ablation).
	DisablePlacement bool
	// NoProtocolPollution removes protocol-induced cache pollution
	// (ablation).
	NoProtocolPollution bool
	// SoftwareAccessControl charges Shasta-style instrumentation on every
	// shared access (the paper's Table-1 costs, which it reports but does
	// not simulate) — used to explore the all-software SC comparison the
	// paper leaves to "further research".
	SoftwareAccessControl bool
	// HLRCUnitShift overrides HLRC's coherence unit to 2^shift bytes
	// (0 = the 4 KB page).  Sub-page units give the fine-grained
	// delayed-consistency multiple-writer protocol of the paper's
	// referee note.
	HLRCUnitShift uint
	// Trace enables the observability layer for this run: the Result
	// carries a captured event trace, hot-object profile and (if
	// TraceSample > 0) breakdown timeline.  Part of the memo key, so
	// traced and untraced runs of the same point cache separately.
	Trace bool
	// TraceSample snapshots the Figure-4 breakdown every N cycles (0 =
	// no timeline).  Implies nothing unless Trace is set.
	TraceSample int64
	// Fault configures deterministic fault injection (drops, duplicates,
	// delays, node pauses, NI stalls) plus the reliable transport that
	// absorbs it.  The zero value is the paper's perfectly reliable
	// fabric.  Part of the memo key: faulted and clean runs of the same
	// point cache separately.
	Fault fault.Spec
	// Hetero configures the heterogeneity plane: per-node machine models
	// (slow CPUs, accelerator nodes, asymmetric links) and the adaptive
	// home/grain placement policies.  The zero value is the paper's
	// uniform machine.  Part of the memo key: heterogeneous and uniform
	// runs of the same point cache separately.  A non-empty Placement
	// implies DisablePlacement (both the static round-robin baseline and
	// the adaptive policy start from round-robin homes, so adaptive gains
	// are attributable to migration, not to ignoring app placement).
	Hetero hetero.Spec
	// Check runs the consistency conformance checker over the run: every
	// load is verified against the writes the protocol's declared model
	// (RC or SC) permits, and a violation fails the run with a
	// *consistency.Violation error.  Part of the memo key: checked and
	// unchecked runs cache separately (checking records the full access
	// history).
	Check bool
}

// DefaultSpec is the paper's base system (AO) for an application.
func DefaultSpec(app string, prot ProtocolKind) RunSpec {
	return RunSpec{
		App: app, Scale: apps.Base, Protocol: prot, Procs: 16,
		Comm: comm.Achievable(), Costs: proto.OriginalCosts(),
		CacheEnabled: true,
	}
}

// Validate rejects a spec no run could serve: an unknown application,
// protocol or scale, procs outside [1, 64], or invalid communication,
// fault or heterogeneity parameters.
func (s RunSpec) Validate() error {
	if _, err := apps.Lookup(s.App); err != nil {
		return err
	}
	switch s.Protocol {
	case HLRC, LRC, SC, Ideal:
	default:
		return fmt.Errorf("unknown protocol %q", s.Protocol)
	}
	if s.Procs < 1 || s.Procs > 64 {
		return fmt.Errorf("procs %d outside [1, 64]", s.Procs)
	}
	if s.Scale < apps.Tiny || s.Scale > apps.Large {
		return fmt.Errorf("unknown scale %d", s.Scale)
	}
	if err := s.Comm.Validate(); err != nil {
		return err
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	return s.Hetero.Validate()
}

// Result is one run's outcome.
type Result struct {
	Spec   RunSpec
	Cycles int64
	Stats  *stats.Machine
	// Trace holds the captured observability data when Spec.Trace was
	// set: events, breakdown timeline samples, hot-object profile.
	Trace *trace.Data
	// Consistency summarizes what the conformance checker covered when
	// Spec.Check was set (a violation fails the run instead).
	Consistency *consistency.Summary
}

// Run executes a spec: build machine + protocol, set up the app, run all
// threads, verify the result.
func Run(spec RunSpec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with an observability context: if ctx carries a
// logger (obs.WithLogger) the run logs its start and outcome at debug
// level, tagged with the job ID the service attached at enqueue
// (obs.WithJob) — the leg of the per-job log trail that crosses from
// the scheduler into the simulation.  The simulation itself never
// consults ctx: results stay byte-identical with or without
// instrumentation, and an unannotated context costs two nil checks.
func RunContext(ctx context.Context, spec RunSpec) (*Result, error) {
	l := obs.Log(ctx)
	var start time.Time
	if l != nil {
		start = time.Now()
		l.LogAttrs(ctx, slog.LevelDebug, "simulate",
			slog.String("app", spec.App),
			slog.String("protocol", string(spec.Protocol)),
			slog.Int("procs", spec.Procs))
	}
	inst, err := apps.New(spec.App, spec.Scale)
	var res *Result
	if err == nil {
		res, err = RunInstance(spec, inst, nil)
	}
	if l != nil {
		if err != nil {
			l.LogAttrs(ctx, slog.LevelWarn, "simulate failed",
				slog.String("app", spec.App),
				slog.String("protocol", string(spec.Protocol)),
				slog.Duration("wall", time.Since(start)),
				slog.String("error", err.Error()))
		} else {
			l.LogAttrs(ctx, slog.LevelDebug, "simulate done",
				slog.String("app", spec.App),
				slog.String("protocol", string(spec.Protocol)),
				slog.Int64("cycles", res.Cycles),
				slog.Duration("wall", time.Since(start)))
		}
	}
	return res, err
}

// RunInstance executes a spec against an explicit application instance,
// optionally substituting the protocol (newProt non-nil) — the entry
// point the litmus shrinker and the known-bad-protocol oracle tests
// need, since neither the shrunken program nor a deliberately broken
// protocol lives in a registry.  Run(spec) is RunInstance with the
// registry app and the spec's protocol.
func RunInstance(spec RunSpec, inst apps.Instance, newProt func() proto.Protocol) (*Result, error) {
	cfg := core.DefaultConfig()
	cfg.Procs = spec.Procs
	cfg.Comm = spec.Comm
	cfg.Costs = spec.Costs
	cfg.CacheEnabled = spec.CacheEnabled
	cfg.MemLimit = inst.MemBytes()
	if spec.PollQuantum > 0 {
		cfg.PollQuantum = spec.PollQuantum
	}
	cfg.DisablePlacement = spec.DisablePlacement
	cfg.NoProtocolPollution = spec.NoProtocolPollution
	if err := spec.Fault.Validate(); err != nil {
		return nil, err
	}
	cfg.Fault = spec.Fault
	if err := spec.Hetero.Validate(); err != nil {
		return nil, err
	}
	cfg.Hetero = spec.Hetero
	if spec.Hetero.Placement != hetero.PlaceApp {
		// rr and adaptive both start from round-robin homes; adaptive must
		// earn its keep by migrating, not by ignoring app placement.
		cfg.DisablePlacement = true
	}
	if spec.SoftwareAccessControl {
		// ~2 extra instructions per shared reference approximates the
		// Table-1 instrumentation percentages at the 1-IPC model.
		cfg.AccessInstrCycles = 2
	}

	var p proto.Protocol
	if newProt != nil {
		p = newProt()
		if spec.Protocol == Ideal {
			cfg.SharedMem = true
		}
	} else {
		switch spec.Protocol {
		case HLRC:
			if spec.HLRCUnitShift != 0 && spec.Hetero.Grain == hetero.GrainAdaptive {
				return nil, fmt.Errorf("harness: HLRCUnitShift and adaptive grain are mutually exclusive")
			}
			p = hlrc.New(hlrc.Config{Costs: spec.Costs, UnitShift: spec.HLRCUnitShift,
				Hetero: spec.Hetero})
		case LRC:
			p = lrc.New(lrc.Config{Costs: spec.Costs})
		case SC:
			bs := inst.SCBlock()
			if spec.SCBlockOverride > 0 {
				bs = spec.SCBlockOverride
			}
			p = scfg.New(scfg.Config{Costs: spec.Costs, BlockSize: bs})
		case Ideal:
			p = ideal.New()
			cfg.SharedMem = true
		default:
			return nil, fmt.Errorf("harness: unknown protocol %q", spec.Protocol)
		}
	}

	var rec *consistency.Recorder
	if spec.Check {
		// Check against the model the protocol declares; an undeclared
		// protocol is held to the weakest supported contract.
		model := proto.ModelRC
		if md, ok := p.(proto.ModelDeclarer); ok {
			model = md.ConsistencyModel()
		}
		rec = consistency.NewRecorder(model, cfg.Procs)
		cfg.Check = rec
	}

	var tr *trace.Tracer
	if spec.Trace {
		// The tracer keeps every event in memory; the caller serializes
		// them after the run, so concurrently executing runs (the
		// parallel sweep runner) cannot interleave output.
		tr = trace.New(trace.Options{
			Profile:     true,
			SampleEvery: spec.TraceSample,
		})
		cfg.Tracer = tr
	}

	m := core.NewMachine(cfg, p)
	// The result holds nothing of the machine's memories, caches or
	// checker tables, and no coroutine outlives m.Run, so on every
	// return path they go back for the next run to reuse.
	defer func() {
		m.Release()
		rec.Release()
	}()
	inst.Setup(m)
	cycles, err := m.Run(inst.Run)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", spec.App, spec.Protocol, err)
	}
	// The checker speaks first: a wrong answer that a consistency
	// violation explains reports the violation, not the bad value.
	if v := rec.Check(); v != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", spec.App, spec.Protocol, v)
	}
	if err := inst.Verify(m); err != nil {
		return nil, fmt.Errorf("harness: %s on %s failed verification: %w", spec.App, spec.Protocol, err)
	}
	res := &Result{Spec: spec, Cycles: cycles, Stats: m.Stats}
	if rec != nil {
		sum := rec.CheckSummary()
		res.Consistency = &sum
	}
	if tr != nil {
		res.Trace = tr.Data()
		res.Trace.Procs = spec.Procs
	}
	return res, nil
}

// SequentialBaseline runs the app single-threaded on the ideal machine,
// the denominator of every speedup in the paper ("the same best
// sequential version").  Sweeps list BaselineSpec among their specs
// instead, so a session runs it once per (app, scale).
func SequentialBaseline(app string, scale apps.Scale, cacheEnabled bool) (int64, error) {
	res, err := Run(BaselineSpec(app, scale, cacheEnabled))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}
