package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"swsm"
	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
	"swsm/internal/store"
)

// exploreOpts collects the -explore* flags.
type exploreOpts struct {
	app       string
	scale     swsm.Scale
	budget    int64
	seed      uint64
	points    int
	width     int
	protocols string
	procs     string
	storeDir  string
	serverURL string
	jsonOut   bool
	csvPath   string
}

// runExplore drives one auto-tuning search, locally through the shared
// session (optionally backed by a persistent store) or remotely through
// a svmd daemon/coordinator, then prints the Pareto frontier.
func runExplore(ses *swsm.Session, opts exploreOpts) error {
	req := explore.Request{
		App:        opts.app,
		Scale:      opts.scale,
		Budget:     opts.budget,
		Seed:       opts.seed,
		SeedPoints: opts.points,
		Width:      opts.width,
	}
	if opts.protocols != "" {
		for _, p := range strings.Split(opts.protocols, ",") {
			req.Space.Protocols = append(req.Space.Protocols, harness.ProtocolKind(strings.TrimSpace(p)))
		}
	}
	if opts.procs != "" {
		for _, p := range strings.Split(opts.procs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad -explore-procs entry %q: %v", p, err)
			}
			req.Space.Procs = append(req.Space.Procs, n)
		}
	}

	if opts.serverURL != "" {
		return runExploreRemote(opts, req)
	}

	var st *store.Store
	if opts.storeDir != "" {
		var err error
		if st, err = store.Open(opts.storeDir, 0); err != nil {
			return err
		}
	}
	progress := func(p explore.Progress) {
		fmt.Fprintf(os.Stderr, "[explore] %-8s batch %3d: evaluated %3d (sims %3d, cached %3d), best speedup %6.2f, spent %d cycles\n",
			p.Phase, p.Batches, p.Evaluated, p.SimsRun, p.CachedHits, p.BestSpeedup, p.SpentCycles)
	}
	rep, err := explore.Run(context.Background(), req, explore.SessionEvaluator{Ses: ses, St: st}, progress)
	if err != nil {
		return err
	}
	if opts.jsonOut {
		if err := printJSON(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("Explore %s (scale %d, seed %d): %s after %d evaluations (%d simulated, %d cached, %d failed) in %d batches\n",
			rep.App, int(rep.Scale), rep.Seed, rep.Stopped,
			rep.Evaluated, rep.SimsRun, rep.CachedHits, rep.Errors, rep.Batches)
		fmt.Printf("Budget: spent %d fresh-simulation cycles (budget %d); total simulated cost %d cycles\n",
			rep.SpentCycles, rep.Budget, rep.CostCycles)
		printFrontier(rep.Frontier)
	}
	return writeFrontierCSV(opts.csvPath, rep.Frontier)
}

// runExploreRemote submits the search to a daemon/coordinator and
// blocks until it finishes.
func runExploreRemote(opts exploreOpts, req explore.Request) error {
	cl := client.New(opts.serverURL)
	st, err := cl.Explore(context.Background(), req)
	if err != nil {
		return err
	}
	if st.State != api.StateDone {
		return fmt.Errorf("exploration %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if opts.jsonOut {
		if err := printJSON(st); err != nil {
			return err
		}
	} else {
		p := st.Progress
		fmt.Printf("Explore %s (remote %s, id %s, seed %d): %s after %d evaluations (%d simulated, %d cached, %d failed) in %d batches\n",
			st.App, opts.serverURL, st.ID, st.Seed, st.Stopped,
			p.Evaluated, p.SimsRun, p.CachedHits, p.Errors, p.Batches)
		fmt.Printf("Budget: spent %d fresh-simulation cycles (budget %d); total simulated cost %d cycles\n",
			p.SpentCycles, st.Budget, p.CostCycles)
		printFrontier(st.Frontier)
	}
	return writeFrontierCSV(opts.csvPath, st.Frontier)
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

func writeFrontierCSV(path string, frontier []explore.Point) error {
	if path == "" {
		return nil
	}
	return writeCSVFile(path, explore.FrontierTable(frontier))
}
