// Command bench is the repository's benchmark: four workloads that each
// put a different layer of the simulator or the service on top of the
// host profile, end-to-end metrics a user sees, and per-layer metrics
// measured from outside, by timing the calls the benchmark makes into
// each layer's public functions.  See README.md.
//
//	bash bench/run.sh --workload ladder --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --seed 1                 # every workload
//	bash bench/run.sh --trace 1                # per-layer metrics and traces
//	bash bench/run.sh --compare DIR_A DIR_B    # two sets of results
//
// Every round runs in a fresh child process of this binary, so set-up
// time and peak memory are per round and per workload.  The last line
// of standard output is one JSON object: correct, attempted, failed and
// the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"swsm/internal/harness"
)

// scratch is where rounds keep temporary stores and what they leave
// behind, relative to the root of the checkout.
const scratch = ".bench_build"

func main() {
	var (
		wname   = flag.String("workload", "", "workload to measure (default: all of them, rounds interleaved)")
		seed    = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Float64("seconds", 10, "wall time per workload; rounds repeat while the next one ends within it (at least 3)")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of traced rounds instead of the end-to-end metrics")
		out     = flag.String("out", filepath.Join(scratch, "results"), "directory for result records and trace files")
		compare = flag.Bool("compare", false, "compare the results in two directories given as arguments")
		child   = flag.String("child", "", "internal: run one round (pass, traced or layers) and report it")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare DIR_A DIR_B")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*wname}
	if *wname == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(*wname); !ok {
		var known []string
		for _, w := range workloads {
			known = append(known, w.name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", *wname, strings.Join(known, ", "))
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(runChild(*child, *wname, *seed, *out))
	}
	os.Exit(runParent(names, *seed, *seconds, *trace == 1, *out))
}

// runChild runs one round of one workload and prints its roundResult as
// one JSON line.
func runChild(role, wname string, seed int64, out string) int {
	w, _ := workloadByName(wname)
	tmp := filepath.Join(scratch, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var r roundResult
	switch role {
	case "pass", "traced":
		traced := role == "traced"
		var sp *spans
		var prof *profiler
		if traced {
			sp, prof = newSpans(), &profiler{}
		}
		var rows []harness.RunRow
		if w.ops == nil {
			sr := runServiceRound(seed, fullService, tmp, sp, prof)
			r, rows = sr.roundResult, sr.rows
		} else {
			sr := runSimRound(w, seed, sp, prof)
			r, rows = sr.roundResult, sr.rows
		}
		if traced {
			if w.ops == nil {
				r.Ledger = map[string]float64{"cold": float64(len(r.SimLatMs)), "warm": float64(len(r.WarmLatMs))}
			} else {
				r.Ledger = ledgerCounts(rows)
			}
			for k, v := range rowCounts(rows) {
				r.Layer[k] = v
			}
			if err := sp.write(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
				r.fail("trace: %v", err)
			}
		}
	case "layers":
		r = runLayers(seed, tmp)
		r.Workload = w.name
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown round role %q\n", role)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return 0
}
