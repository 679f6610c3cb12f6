package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// metricDef names one metric; BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator or the service sees,
// measured with tracing off, on every workload.  On the simulation
// workloads a "simulating op" is one harness run; on service it is one
// cold job (HTTP, queue, simulation, store write, response).  Latency
// percentiles of single ops are printed as details, not gated: the
// median of a pass's few, unlike runs is whichever run lies in the
// middle, and it moves with the seed more than with the code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},                  // child start until the first timed op
	{"peak_rss_mb", "MB", "lower"},             // the round process's peak resident set
	{"pass_s", "s", "lower"},                   // wall time of the fixed-work timed pass
	{"sim_cycles_per_s", "cycles/s", "higher"}, // simulated cycles per host second of simulating ops
}

// perLayer are the traced invocation's metrics.  Times (ns, us, ms) come
// from the layer benchmarks and the service probe and are measured on
// every workload; counts, sim_time.* and the ledger come from the
// workload's own traced pass; *.self_pct from its CPU profile.
var perLayer = []metricDef{
	{"sim.event_ns", "ns", "lower"},
	{"sim.handoff_ns", "ns", "lower"},
	{"sim.sleep_fast_ns", "ns", "lower"},
	{"sim.self_pct", "%", "lower"},
	{"core.access_ns", "ns", "lower"},
	{"core.loads", "count", "lower"},
	{"core.stores", "count", "lower"},
	{"core.self_pct", "%", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"cache.hit_pct", "%", "higher"},
	{"cache.l1_misses", "count", "lower"},
	{"cache.l2_misses", "count", "lower"},
	{"cache.self_pct", "%", "lower"},
	{"mem.word_ns", "ns", "lower"},
	{"mem.u64_ns", "ns", "lower"},
	{"mem.self_pct", "%", "lower"},
	{"proto.hlrc_fault_us", "us", "lower"},
	{"proto.hlrc_release_us", "us", "lower"},
	{"proto.lrc_release_us", "us", "lower"},
	{"proto.sc_miss_us", "us", "lower"},
	{"proto.page_fetches", "count", "lower"},
	{"proto.block_fetches", "count", "lower"},
	{"proto.diffs", "count", "lower"},
	{"proto.twins", "count", "lower"},
	{"proto.invalidations", "count", "lower"},
	{"proto.diff_useful_pct", "%", "higher"},
	{"proto.self_pct", "%", "lower"},
	{"comm.send_ns", "ns", "lower"},
	{"comm.reliable_send_ns", "ns", "lower"},
	{"comm.lossy_send_ns", "ns", "lower"},
	{"comm.msgs", "count", "lower"},
	{"comm.bytes", "bytes", "lower"},
	{"comm.retransmit_pct", "%", "lower"},
	{"comm.self_pct", "%", "lower"},
	{"fault.self_pct", "%", "lower"},
	{"hetero.pages_rehomed", "count", "lower"},
	{"hetero.pages_demoted", "count", "lower"},
	{"hetero.self_pct", "%", "lower"},
	{"consistency.access_checked_ns", "ns", "lower"},
	{"consistency.check_ns_per_op", "ns", "lower"},
	{"consistency.ops", "count", "lower"},
	{"consistency.self_pct", "%", "lower"},
	{"apps.self_pct", "%", "lower"},
	{"harness.runs", "count", "lower"},
	{"harness.sim_cycles", "cycles", "lower"},
	{"harness.alloc_mb", "MB", "lower"},
	{"harness.key_us", "us", "lower"},
	{"runner.memo_hit_ns", "ns", "lower"},
	{"harness.self_pct", "%", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.hit_pct", "%", "higher"},
	{"store.self_pct", "%", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.sim_run_ms", "ms", "lower"},
	{"server.store_get_us", "us", "lower"},
	{"server.store_put_us", "us", "lower"},
	{"server.http_overhead_us", "us", "lower"},
	{"server.cold_p50_ms", "ms", "lower"},
	{"server.warm_p50_ms", "ms", "lower"},
	{"server.warm_p99_ms", "ms", "lower"},
	{"server.sweep_points_per_s", "1/s", "higher"},
	{"server.self_pct", "%", "lower"},
	{"cluster.sweep_points_per_s", "1/s", "higher"},
	{"cluster.dispatch_ms_per_point", "ms", "lower"},
	{"cluster.redispatches", "count", "lower"},
	{"cluster.self_pct", "%", "lower"},
	{"client.self_pct", "%", "lower"},
	{"net.self_pct", "%", "lower"},
	{"bench.self_pct", "%", "lower"},
	{"other.self_pct", "%", "lower"},
	{"runtime.unattributed_pct", "%", "lower"},
	{"sim_time.busy", "cycles", "lower"},
	{"sim_time.cache", "cycles", "lower"},
	{"sim_time.data", "cycles", "lower"},
	{"sim_time.lock", "cycles", "lower"},
	{"sim_time.barrier", "cycles", "lower"},
	{"sim_time.protocol", "cycles", "lower"},
	{"sim_time.handler", "cycles", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"ledger.residual_pct", "%", "lower"},
}

// selfPctName maps a profile bucket to its per-layer metric.
func selfPctName(bucket string) string {
	if bucket == "runtime" {
		return "runtime.unattributed_pct"
	}
	return bucket + ".self_pct"
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the root of the checkout,
// looking in the working directory and then its parent (the benchmark's
// own directory).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var errs []string
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &f, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %s", strings.Join(errs, "; "))
}
