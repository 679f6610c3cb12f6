// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md.
//
// They run full simulations; their interesting output is the custom
// metrics (speedups, percentages) reported per configuration, not
// ns/op.  Run with:
//
//	go test -bench=. -benchmem
//
// The simulator's own host cost, end to end and per layer (access path,
// page fault, block miss and the rest), is measured by bash bench/run.sh.
package swsm_test

import (
	"fmt"
	"testing"

	"swsm"
	"swsm/internal/stats"
)

// benchApps is the subset used by per-figure benchmarks to keep -bench=.
// affordable; cmd/svmbench covers the full suite.
var benchApps = []string{"fft", "lu", "ocean", "barnes", "radix", "water-nsquared"}

// BenchmarkTable1 renders the applications table (static).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(swsm.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 renders the communication parameter sets (static).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(swsm.Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3 renders the protocol cost sets (static).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(swsm.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4 measures protocol-activity percentages (HLRC, base
// configuration) across the suite and reports the diff/handler split
// for a representative pair of applications.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := swsm.Table4(swsm.Tiny, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.App {
			case "water-nsquared":
				b.ReportMetric(r.DiffPct, "water-diff-%")
			case "ocean":
				b.ReportMetric(r.HandlerPct, "ocean-handler-%")
			}
		}
	}
}

// BenchmarkTable5 computes the per-application layer-importance summary.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := swsm.Table5(swsm.Tiny, 8)
		if err != nil {
			b.Fatal(err)
		}
		commFirst := 0
		for _, r := range rows {
			if r.CommFirst {
				commFirst++
			}
		}
		b.ReportMetric(float64(commFirst)/float64(len(rows))*100, "comm-first-%")
	}
}

// BenchmarkFigure3 regenerates the speedup ladder per application,
// reporting the base (AO) and idealized (BB) HLRC speedups.
func BenchmarkFigure3(b *testing.B) {
	for _, app := range benchApps {
		app := app
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bar, err := swsm.Figure3(app, swsm.Base, 16)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bar.HLRC["AO"], "hlrc-AO-speedup")
				b.ReportMetric(bar.HLRC["BB"], "hlrc-BB-speedup")
				b.ReportMetric(bar.SC["AO"], "sc-AO-speedup")
				b.ReportMetric(bar.Ideal, "ideal-speedup")
			}
		})
	}
}

// BenchmarkFigure4 regenerates execution-time breakdowns, reporting the
// base configuration's data-wait share.
func BenchmarkFigure4(b *testing.B) {
	for _, app := range []string{"fft", "barnes"} {
		app := app
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := swsm.Figure4(app, swsm.Base, 16)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Proto == swsm.HLRC && r.Config == "AO" {
						total := float64(0)
						for _, v := range r.Breakdown {
							total += v
						}
						b.ReportMetric(r.Breakdown[stats.DataWait]/total*100, "data-wait-%")
					}
				}
			}
		})
	}
}

// BenchmarkFigure5 regenerates the single-parameter sweeps, reporting
// the bandwidth sensitivity of HLRC and the occupancy sensitivity of SC
// (the paper's conclusion iv).
func BenchmarkFigure5(b *testing.B) {
	for _, app := range []string{"fft", "raytrace"} {
		app := app
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := swsm.Figure5(app, swsm.Base, 16)
				if err != nil {
					b.Fatal(err)
				}
				get := func(param, factor string, proto swsm.ProtocolKind) float64 {
					for _, p := range pts {
						if p.Param == param && p.Factor == factor && p.Proto == proto {
							return p.Speedup
						}
					}
					return 0
				}
				b.ReportMetric(get("bandwidth", "0", swsm.HLRC)/get("bandwidth", "1", swsm.HLRC),
					"hlrc-bw-gain")
				b.ReportMetric(get("occupancy", "0", swsm.SC)/get("occupancy", "1", swsm.SC),
					"sc-occ-gain")
			}
		})
	}
}

// --- ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationPollQuantum varies the back-edge polling granularity.
func BenchmarkAblationPollQuantum(b *testing.B) {
	for _, q := range []int64{200, 1000, 5000} {
		q := q
		b.Run(fmt.Sprintf("quantum=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("raytrace", swsm.HLRC)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				spec.PollQuantum = q
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationHomePlacement compares application-directed data
// placement against pure round-robin homes.
func BenchmarkAblationHomePlacement(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "placed"
		if disabled {
			name = "round-robin"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("ocean", swsm.HLRC)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				spec.DisablePlacement = disabled
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationGranularity sweeps the SC coherence granularity for
// a regular and an irregular application.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, app := range []string{"fft", "barnes"} {
		for _, bs := range []int{64, 256, 1024, 4096} {
			app, bs := app, bs
			b.Run(fmt.Sprintf("%s/block=%d", app, bs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := swsm.DefaultSpec(app, swsm.SC)
					spec.Scale = swsm.Tiny
					spec.Procs = 8
					spec.SCBlockOverride = bs
					res, err := swsm.Run(spec)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Cycles), "sim-cycles")
				}
			})
		}
	}
}

// BenchmarkAblationPollution toggles protocol-induced cache pollution.
func BenchmarkAblationPollution(b *testing.B) {
	for _, off := range []bool{false, true} {
		off := off
		name := "polluting"
		if off {
			name = "clean"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("water-nsquared", swsm.HLRC)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				spec.NoProtocolPollution = off
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationEagerHome compares HLRC's eager diff propagation to
// a home against classic LRC's distributed diffs fetched on fault — the
// design choice that defines HLRC.
func BenchmarkAblationEagerHome(b *testing.B) {
	for _, prot := range []swsm.ProtocolKind{swsm.HLRC, swsm.LRC} {
		prot := prot
		b.Run(string(prot), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("water-nsquared", prot)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationInterrupts models interrupt-based message handling
// (cost ~5000 cycles / 25us) instead of polling — the paper notes that
// "when interrupts are used their cost is the most significant cost in
// the communication architecture".
func BenchmarkAblationInterrupts(b *testing.B) {
	for _, mh := range []int64{200, 5000} {
		mh := mh
		name := "polling"
		if mh > 1000 {
			name = "interrupts"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("ocean", swsm.HLRC)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				spec.Comm.MsgHandling = mh
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationHLRCUnit sweeps HLRC's coherence unit from 128 B to
// the classic 4 KB page: sub-page units are the delayed-consistency
// fine-grained multiple-writer protocol the paper's referee note says is
// "a little better than SC for most granularities smaller than a page".
func BenchmarkAblationHLRCUnit(b *testing.B) {
	for _, shift := range []uint{7, 9, 12} {
		shift := shift
		b.Run(fmt.Sprintf("unit=%d", 1<<shift), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("barnes", swsm.HLRC)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				spec.HLRCUnitShift = shift
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkSCSoftwareAccessControl adds Shasta-style instrumentation
// cost to every shared access — the all-software SC comparison the
// paper says "awaits further research" ("with software instrumentation
// costs, performance would be much closer").
func BenchmarkSCSoftwareAccessControl(b *testing.B) {
	for _, sw := range []bool{false, true} {
		sw := sw
		name := "hardware"
		if sw {
			name = "software"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := swsm.DefaultSpec("lu", swsm.SC)
				spec.Scale = swsm.Tiny
				spec.Procs = 8
				spec.SoftwareAccessControl = sw
				res, err := swsm.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
			}
		})
	}
}
