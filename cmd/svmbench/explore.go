package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"swsm/internal/cli"
	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/store"
)

// runExplore drives one auto-tuning search, locally through the shared
// session (optionally backed by a persistent store) or remotely through
// a svmd daemon/coordinator, then prints the search's one record, its
// explore.Report, the same way from either source.
func (r *request) runExplore(ctx context.Context) error {
	req := explore.Request{
		App:        r.exploreApp,
		Scale:      r.scale,
		Budget:     r.exploreBudget,
		Seed:       r.exploreSeed,
		SeedPoints: r.explorePoints,
		Width:      r.exploreWidth,
	}
	if r.exploreProtos != "" {
		for _, p := range strings.Split(r.exploreProtos, ",") {
			req.Space.Protocols = append(req.Space.Protocols, harness.ProtocolKind(strings.TrimSpace(p)))
		}
	}
	if r.exploreProcs != "" {
		for _, p := range strings.Split(r.exploreProcs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad -explore-procs entry %q: %v", p, err)
			}
			req.Space.Procs = append(req.Space.Procs, n)
		}
	}

	// The one record of the search, from the daemon or from the local
	// run; only the closing line says where it ran.
	start := time.Now()
	var (
		rep     *explore.Report
		closing string
	)
	if r.client != nil {
		st, err := r.client.Explore(ctx, req)
		if err != nil {
			return err
		}
		if st.State != api.StateDone {
			return fmt.Errorf("exploration %s ended %s: %s", st.ID, st.State, st.Error)
		}
		rep = &st.Report
		closing = fmt.Sprintf("svmd %s, id %s", r.server, st.ID)
	} else {
		var st *store.Store
		if r.exploreStore != "" {
			var err error
			if st, err = store.Open(r.exploreStore, 0); err != nil {
				return err
			}
		}
		progress := func(p explore.Progress) {
			fmt.Fprintf(os.Stderr, "[explore] %-8s batch %3d: evaluated %3d (sims %3d, cached %3d), best speedup %6.2f, spent %d cycles\n",
				p.Phase, p.Batches, p.Evaluated, p.SimsRun, p.CachedHits, p.BestSpeedup, p.SpentCycles)
		}
		var err error
		if rep, err = explore.Run(ctx, req, explore.SessionEvaluator{Ses: r.ses, St: st}, progress); err != nil {
			return err
		}
		closing = fmt.Sprintf("parallel=%d", r.ses.Parallelism())
	}
	out := os.Stdout
	if r.json {
		if err := printJSON(rep); err != nil {
			return err
		}
		out = os.Stderr
	} else {
		fmt.Printf("Explore %s (scale %d, seed %d): %s after %d evaluations (%d simulated, %d cached, %d failed) in %d batches\n",
			rep.App, int(rep.Scale), rep.Seed, rep.Stopped, rep.Evaluated, rep.SimsRun, rep.CachedHits, rep.Errors, rep.Batches)
		fmt.Printf("Budget: spent %d fresh-simulation cycles (budget %d); total simulated cost %d cycles\n",
			rep.SpentCycles, rep.Budget, rep.CostCycles)
		printFrontier(rep.Frontier)
	}
	fmt.Fprintf(out, "[explore: %.2fs wall, %s]\n", time.Since(start).Seconds(), closing)
	if r.csv == "" {
		return nil
	}
	return cli.WriteCSV(os.Stdout, r.csv, explore.FrontierTable(rep.Frontier))
}

// printFrontier renders the Pareto frontier, best configuration last.
func printFrontier(frontier []explore.Point) {
	if len(frontier) == 0 {
		fmt.Println("Frontier: empty (no configuration evaluated successfully)")
		return
	}
	fmt.Println("Pareto frontier (speedup vs. cumulative simulated cost):")
	fmt.Printf("  %-22s %10s %14s %14s\n", "config", "speedup", "cycles", "cost")
	for _, p := range frontier {
		fmt.Printf("  %-22s %10.2f %14d %14d\n", p.Label, p.Speedup, p.Cycles, p.CostCycles)
	}
	best := frontier[len(frontier)-1]
	fmt.Printf("Best: %s (speedup %.2f, key %s)\n", best.Label, best.Speedup, best.Key)
}
