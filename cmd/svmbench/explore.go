package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"swsm/internal/cli"
	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/store"
)

// runExplore drives one auto-tuning search, locally through the shared
// session (optionally backed by a persistent store) or remotely through
// a svmd daemon/coordinator, then prints the Pareto frontier.
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

	// The search's JSON form, its title, counts and frontier, from the
	// daemon or from the local run.
	var (
		out      any
		title    string
		p        explore.Progress
		frontier []explore.Point
	)
	if r.client != nil {
		st, err := r.client.Explore(ctx, req)
		if err != nil {
			return err
		}
		if st.State != api.StateDone {
			return fmt.Errorf("exploration %s ended %s: %s", st.ID, st.State, st.Error)
		}
		out, p, frontier = st, st.Progress, st.Frontier
		p.Budget = st.Budget
		title = fmt.Sprintf("Explore %s (remote %s, id %s, seed %d): %s", st.App, r.server, st.ID, st.Seed, st.Stopped)
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
		rep, err := explore.Run(ctx, req, explore.SessionEvaluator{Ses: r.ses, St: st}, progress)
		if err != nil {
			return err
		}
		out, frontier = rep, rep.Frontier
		p = explore.Progress{Batches: rep.Batches, Evaluated: rep.Evaluated, SimsRun: rep.SimsRun, CachedHits: rep.CachedHits,
			Errors: rep.Errors, CostCycles: rep.CostCycles, SpentCycles: rep.SpentCycles, Budget: rep.Budget}
		title = fmt.Sprintf("Explore %s (scale %d, seed %d): %s", rep.App, int(rep.Scale), rep.Seed, rep.Stopped)
	}
	if r.json {
		if err := printJSON(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("%s after %d evaluations (%d simulated, %d cached, %d failed) in %d batches\n",
			title, p.Evaluated, p.SimsRun, p.CachedHits, p.Errors, p.Batches)
		fmt.Printf("Budget: spent %d fresh-simulation cycles (budget %d); total simulated cost %d cycles\n",
			p.SpentCycles, p.Budget, p.CostCycles)
		printFrontier(frontier)
	}
	if r.csv == "" {
		return nil
	}
	return cli.WriteCSV(os.Stdout, r.csv, explore.FrontierTable(frontier))
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
