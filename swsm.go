// Package swsm is the public API of the layered software-shared-memory
// study: a faithful reproduction, in pure Go, of "Limits to the
// Performance of Software Shared Memory: A Layered Approach" (HPCA
// 1999).
//
// The library contains a deterministic execution-driven cluster
// simulator, two software shared-memory protocols — page-grained
// home-based lazy release consistency (HLRC) and fine/variable-grained
// sequentially consistent directory coherence (SC) — a parameterized
// communication layer, the nine SPLASH-2-style applications of the
// paper's Table 1 plus their restructured-for-SVM variants, and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// # Quick start
//
// Run one application under one configuration:
//
//	spec := swsm.DefaultSpec("fft", swsm.HLRC)
//	res, err := swsm.Run(spec)
//	// res.Cycles, res.Stats: breakdowns, counters ...
//
// Compare against the sequential baseline:
//
//	speedup, res, err := swsm.Speedup(spec)
//
// Or write a program of your own against the shared-address-space model:
//
//	m := swsm.NewHLRCMachine(swsm.MachineDefaults())
//	addr := m.AllocPage(4096)
//	cycles, err := m.Run(func(t *swsm.Thread) {
//	    t.Acquire(0)
//	    t.Store32(addr, t.Load32(addr)+1)
//	    t.Release(0)
//	    t.Barrier(0)
//	})
//
// The three layers the paper varies are the knobs of RunSpec: the
// communication parameter sets (CommAchievable … CommBetterThanBest),
// the protocol cost sets (CostsOriginal/Halfway/Best), and the choice of
// original vs restructured application.
package swsm

import (
	"swsm/internal/apps"
	"swsm/internal/apps/litmus"
	"swsm/internal/comm"
	"swsm/internal/consistency"
	"swsm/internal/core"
	"swsm/internal/explore"
	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/hetero"
	"swsm/internal/proto"
	"swsm/internal/proto/hlrc"
	"swsm/internal/proto/ideal"
	"swsm/internal/proto/scfg"
	"swsm/internal/stats"
	"swsm/internal/trace"

	// Register the full application suite.
	_ "swsm/internal/apps/barnes"
	_ "swsm/internal/apps/fft"
	_ "swsm/internal/apps/lu"
	_ "swsm/internal/apps/ocean"
	_ "swsm/internal/apps/radix"
	_ "swsm/internal/apps/raytrace"
	_ "swsm/internal/apps/volrend"
	_ "swsm/internal/apps/water"
)

// Core machine types.
type (
	// Machine is a simulated cluster (see internal/core).
	Machine = core.Machine
	// MachineConfig configures a Machine.
	MachineConfig = core.Config
	// Thread is the shared-address-space programming interface handed to
	// every simulated processor.
	Thread = core.Thread
	// CommParams are the communication-layer cost parameters (Table 2).
	CommParams = comm.Params
	// ProtocolCosts are the protocol-layer cost parameters (Table 3).
	ProtocolCosts = proto.Costs
	// Metrics is a run's statistics record (breakdowns and counters).
	Metrics = stats.Machine
)

// Experiment harness types.
type (
	// RunSpec describes one simulation run.
	RunSpec = harness.RunSpec
	// Result is one run's outcome.
	Result = harness.Result
	// ProtocolKind selects HLRC, SC or the ideal machine.
	ProtocolKind = harness.ProtocolKind
	// LayerConfig pairs a communication set with a protocol cost set
	// ("AO" is the base system, "BB" both idealized...).
	LayerConfig = harness.LayerConfig
	// Scale selects a problem size (Tiny, Base, Large).
	Scale = apps.Scale
	// AppInfo describes a registered application.
	AppInfo = apps.Info
)

// Protocol kinds.
const (
	HLRC  = harness.HLRC
	SC    = harness.SC
	LRC   = harness.LRC
	Ideal = harness.Ideal
)

// Problem scales.
const (
	Tiny  = apps.Tiny
	Base  = apps.Base
	Large = apps.Large
)

// Communication parameter sets (the paper's A, B, H, W, B+).
var (
	CommAchievable     = comm.Achievable
	CommBest           = comm.Best
	CommHalfway        = comm.Halfway
	CommWorse          = comm.Worse
	CommBetterThanBest = comm.BetterThanBest
)

// Protocol cost sets (the paper's O, H, B).
var (
	CostsOriginal = proto.OriginalCosts
	CostsHalfway  = proto.HalfwayCosts
	CostsBest     = proto.BestCosts
)

// MachineDefaults returns the paper's base machine configuration: 16
// uniprocessor nodes, achievable communication parameters, original
// protocol costs, P6-like caches.
func MachineDefaults() MachineConfig { return core.DefaultConfig() }

// NewHLRCMachine builds a cluster running home-based lazy release
// consistency with the configured protocol costs.
func NewHLRCMachine(cfg MachineConfig) *Machine {
	return core.NewMachine(cfg, hlrc.New(hlrc.Config{Costs: cfg.Costs}))
}

// NewSCMachine builds a cluster running the fine-grained sequentially
// consistent protocol at the given block granularity (bytes, a power of
// two; 64 if zero).
func NewSCMachine(cfg MachineConfig, blockSize int) *Machine {
	return core.NewMachine(cfg, scfg.New(scfg.Config{Costs: cfg.Costs, BlockSize: blockSize}))
}

// NewIdealMachine builds the zero-cost-coherence machine used for
// algorithmic speedups and sequential baselines.
func NewIdealMachine(cfg MachineConfig) *Machine {
	cfg.SharedMem = true
	return core.NewMachine(cfg, ideal.New())
}

// Apps lists the registered applications (originals and restructured).
func Apps() []string { return apps.Names() }

// AppLookup returns metadata for a registered application.
func AppLookup(name string) (AppInfo, error) { return apps.Lookup(name) }

// DefaultSpec is the paper's base (AO) configuration for an application.
func DefaultSpec(app string, prot ProtocolKind) RunSpec {
	return harness.DefaultSpec(app, prot)
}

// Run executes a spec end to end (setup, simulate, verify).
func Run(spec RunSpec) (*Result, error) { return harness.Run(spec) }

// RunRow is the machine-readable form of a Result: the one JSON shape
// shared by svmsim/svmbench -json output, the experiment service's
// (cmd/svmd) responses, and the persistent result store's payloads.
type RunRow = harness.RunRow

// KeyVersion is the version of RunSpec's content-key encoding
// (RunSpec.Key, the address results are stored under); it is bumped
// whenever the canonical encoding changes.
const KeyVersion = harness.KeyVersion

// RunRow constructors and serialization.
var (
	NewRunRow       = harness.NewRunRow
	WriteRunRowJSON = harness.WriteRunRowJSON
)

// Session is a sweep session: it fans independent runs over a bounded
// number of workers and memoizes every run by its RunSpec, so a configuration
// executes at most once per session no matter how many figures and
// tables request it.  Each figure/table helper exists as a Session
// method; the package-level functions are one-off sessions.
type Session = harness.Session

// SweepStats are a Session's cache counters (runs executed, cache hits,
// single-flight waits).
type SweepStats = harness.Stats

// NewSession creates a sweep session running at most parallel
// simulations concurrently (0 = one per available CPU).
func NewSession(parallel int) *Session { return harness.NewSession(parallel) }

// Speedup runs spec and reports speedup over the sequential baseline.
func Speedup(spec RunSpec) (float64, *Result, error) {
	return harness.NewSession(0).Speedup(spec)
}

// SequentialBaseline reports the one-processor ideal-machine cycle count
// used as every speedup's denominator.
func SequentialBaseline(app string, scale Scale) (int64, error) {
	return harness.SequentialBaseline(app, scale, true)
}

// Figure3 reproduces the paper's Figure 3 speedup ladder for one app.
func Figure3(app string, scale Scale, procs int) (*harness.AppBar, error) {
	return harness.NewSession(0).Figure3(app, scale, procs, harness.Figure3Configs)
}

// Figure4 reproduces the paper's Figure 4 execution-time breakdowns.
func Figure4(app string, scale Scale, procs int) ([]harness.Figure4Row, error) {
	return harness.NewSession(0).Figure4(app, scale, procs, harness.Figure3Configs)
}

// Figure5 reproduces the paper's Figure 5 single-communication-parameter
// sweeps.
func Figure5(app string, scale Scale, procs int) ([]harness.Figure5Point, error) {
	return harness.NewSession(0).Figure5(app, scale, procs)
}

// Tables 1-3 render the static configuration tables.
var (
	Table1       = harness.Table1
	Table2       = harness.Table2
	Table3       = harness.Table3
	FormatTable4 = harness.FormatTable4
	FormatTable5 = harness.FormatTable5
)

// Table4 measures the paper's Table 4: protocol activity as a share of
// processor time, with its diff/handler split.
func Table4(scale Scale, procs int) ([]harness.Table4Row, error) {
	return harness.NewSession(0).Table4(scale, procs)
}

// Table5 measures the paper's Table 5 per-application HLRC summary.
func Table5(scale Scale, procs int) ([]harness.Table5Row, error) {
	return harness.NewSession(0).Table5(scale, procs)
}

// Formatting helpers for the figure reproductions.
var (
	FormatFigure3 = harness.FormatFigure3
	FormatFigure4 = harness.FormatFigure4
	FormatFigure5 = harness.FormatFigure5
)

// Figure3Configs is the paper's bar ladder (B+B, BB, AB, BO, AO, WO).
var Figure3Configs = harness.Figure3Configs

// Observability types: set RunSpec.Trace (and optionally
// RunSpec.TraceSample) and the Result carries a TraceData with the
// captured event stream, breakdown timeline and hot-object profile.
type (
	// TraceData is one traced run's captured observability data.
	TraceData = trace.Data
	// TraceRun labels one traced run for multi-run trace files.
	TraceRun = trace.Run
	// HotProfile ranks pages, locks and barriers hottest-first.
	HotProfile = trace.Profile
)

// Trace serialization: Chrome trace_event JSON (loads in Perfetto /
// chrome://tracing; one track per simulated processor) and compact
// JSONL.  Output bytes are deterministic for identical runs.
var (
	WriteChromeTrace      = trace.WriteChrome
	WriteChromeTraceMulti = trace.WriteChromeMulti
	WriteJSONLTrace       = trace.WriteJSONL
)

// Observability CSV exports and traced-sweep helpers.
var (
	WriteBreakdownTimelineCSV = harness.WriteBreakdownTimelineCSV
	WriteHotObjectsCSV        = harness.WriteHotObjectsCSV
	TracedConfigSpecs         = harness.TracedConfigSpecs
	TraceRuns                 = harness.TraceRuns
)

// Closed-loop auto-tuning: Explore adaptively searches the configuration
// space of one application (protocol x communication set x cost set x
// processor count x protocol knobs) for the Pareto frontier of speedup
// vs. cumulative simulated cost.  The search is deterministic for a
// fixed seed and budget, and evaluates through a Session (and optional
// persistent store), so re-exploring a warm space costs no new
// simulations.  The same engine runs behind svmd's /explore endpoint.
type (
	// ExploreRequest configures one auto-tuning search.
	ExploreRequest = explore.Request
	// ExploreSpace bounds the searched configuration space.
	ExploreSpace = explore.Space
	// ExploreReport is a finished search: the frontier plus counters.
	ExploreReport = explore.Report
	// ExplorePoint is one Pareto-frontier entry.
	ExplorePoint = explore.Point
	// ExploreProgress is the per-batch progress record.
	ExploreProgress = explore.Progress
	// SessionEvaluator evaluates explore candidates through a Session,
	// optionally backed by a persistent result store.
	SessionEvaluator = explore.SessionEvaluator
)

// Explore runs one auto-tuning search to completion; WriteFrontierCSV
// exports a frontier in the svmbench/svmd CSV schema.
var (
	Explore          = explore.Run
	WriteFrontierCSV = explore.WriteFrontierCSV
)

// Fault injection and graceful degradation: set RunSpec.Fault and the
// machine routes every protocol message through a reliable transport
// (sequence numbers, cumulative acks, timeout retransmission with capped
// exponential backoff, duplicate suppression) over a deterministically
// faulty fabric.  Faulted runs must still compute the fault-free
// answers — Run verifies every result — so the fault plane doubles as a
// correctness oracle for the protocol stack.
type (
	// FaultSpec configures the deterministic fault plane (drop /
	// duplicate / delay rates in parts per million, node pause and NI
	// stall windows, all keyed by a seed).  The zero value is the
	// paper's perfectly reliable fabric.
	FaultSpec = fault.Spec
	// DegradationPoint is one slowdown-vs-drop-rate measurement.
	DegradationPoint = harness.DegradationPoint
)

// FaultPPM is the fixed-point base of FaultSpec rates (parts per
// million; 10_000 PPM = 1%).
const FaultPPM = fault.PPM

// Degradation-sweep helpers: FaultedSpec attaches a seeded drop-rate
// plan to a spec; Session.DegradationSweep measures slowdown vs drop
// rate across app x protocol; the formatters render/export the points.
var (
	FaultedSpec         = harness.FaultedSpec
	FormatDegradation   = harness.FormatDegradation
	WriteDegradationCSV = harness.WriteDegradationCSV
)

// Heterogeneous clusters: set RunSpec.Hetero and every node gets its own
// machine model (CPU, accelerator and link-speed multipliers as exact
// integer rationals), with optional adaptive page-home migration and
// per-page coherence-granularity selection inside the HLRC protocol.
// Session.HeterogeneitySweep measures skew x placement x protocol and
// derives where the paper's uniform-cluster protocol verdicts flip.
type (
	// HeteroSpec is the per-node machine model + placement policy plane
	// of a RunSpec.  The zero value is the paper's uniform cluster.
	HeteroSpec = hetero.Spec
	// HeteroNodeSpec is one node's resolved cycle multipliers.
	HeteroNodeSpec = hetero.NodeSpec
	// HeteroPoint is one app x skew x placement x protocol measurement.
	HeteroPoint = harness.HeteroPoint
	// HeteroFlip is one row of the protocol-verdict table.
	HeteroFlip = harness.HeteroFlip
)

// The placement policies a HeteroSpec can carry.
const (
	PlaceApp      = hetero.PlaceApp
	PlaceRR       = hetero.PlaceRR
	PlaceAdaptive = hetero.PlaceAdaptive
)

// Heterogeneity-sweep helpers: presets and placement policies by name,
// spec composition, the verdict table, and the render/export paths.
var (
	HeteroPresetNames     = hetero.PresetNames
	HeteroPresetByName    = hetero.PresetByName
	HeteroPlacementNames  = harness.PlacementNames
	ComposeHeteroSpec     = harness.HeteroSpec
	HeteroVerdicts        = harness.HeteroVerdicts
	FormatHeterogeneity   = harness.FormatHeterogeneity
	WriteHeterogeneityCSV = harness.WriteHeterogeneityCSV
)

// Consistency conformance checking: set RunSpec.Check and every load of
// the run is verified against the writes the protocol's declared memory
// model (release consistency for hlrc/lrc, sequential consistency for
// sc) permits.  A conforming run carries a ConsistencySummary in the
// Result; a violation fails the run with a *ConsistencyViolation error
// naming the processor, word address, cycle and the happens-before path
// that forbids the value read.
type (
	// ConsistencySummary is the checker's coverage record.
	ConsistencySummary = consistency.Summary
	// ConsistencyViolation is a checker failure (use errors.As).
	ConsistencyViolation = consistency.Violation
	// ConsistencyModel names the contract a protocol declares (RC or SC).
	ConsistencyModel = proto.Model
	// LitmusProgram is one generated random litmus workload.
	LitmusProgram = litmus.Program
	// LitmusPoint is one (seed, protocol, fault-rate) cell of a sweep.
	LitmusPoint = harness.LitmusPoint
)

// The declared consistency models.
const (
	ModelRC = proto.ModelRC
	ModelSC = proto.ModelSC
)

// Litmus workloads: seeded deterministic random programs of loads,
// stores, lock sections and barriers, which resolve by name as ordinary
// applications (LitmusSpec; LitmusEnsure returns a seed's name) and are
// swept across the protocol
// and fault grid with the checker on (Session.LitmusSweep).
// ShrinkLitmus delta-debugs a failing program to a minimal reproducer.
var (
	LitmusGenerate = litmus.Generate
	LitmusEnsure   = litmus.Name
	LitmusSpec     = harness.LitmusSpec
	ShrinkLitmus   = harness.ShrinkLitmus
	FormatLitmus   = harness.FormatLitmus
	WriteLitmusCSV = harness.WriteLitmusCSV
)
