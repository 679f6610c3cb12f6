package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"swsm/internal/apps"
	"swsm/internal/cache"
	"swsm/internal/comm"
	"swsm/internal/consistency"
	"swsm/internal/core"
	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/mem"
	"swsm/internal/proto"
	"swsm/internal/proto/hlrc"
	"swsm/internal/proto/lrc"
	"swsm/internal/proto/scfg"
	"swsm/internal/sim"
	"swsm/internal/store"
)

// Layer benchmarks: a fixed number of calls into one layer's public
// functions, timed from outside.  Each benchmark runs once to warm up
// and then microReps times; it reports the median time per call.  The
// counts in a traced round times these per-call costs give the ledger,
// a host-time attribution that needs no profiler in the loop.

const microReps = 5

// runLayers is the traced invocation's layer round: the layer
// benchmarks, the store benchmark, and a small service round whose
// server-side timings stand for the service layers on every workload.
func runLayers(seed int64, tmp string) roundResult {
	r := roundResult{Layer: map[string]float64{"cache.hit_pct": streamHitPct(seed)}}
	vals, errs := runMicros(seed, tmp)
	r.Attempted += len(vals) + len(errs)
	for k, v := range vals {
		r.Layer[k] = v
	}
	r.Attempted++
	st, err := benchStore(tmp)
	if err != nil {
		errs = append(errs, fmt.Errorf("store: %w", err))
	}
	for k, v := range st {
		r.Layer[k] = v
	}
	for _, err := range errs {
		r.fail("%v", err)
	}
	probe := runServiceRound(seed, probeService, tmp, nil, nil)
	r.Attempted += probe.Attempted
	r.Failed += probe.Failed
	r.Failures = append(r.Failures, probe.Failures...)
	for k, v := range probe.Layer {
		r.Layer[k] = v
	}
	return r
}

// micro is one layer benchmark: run performs the fixed work and returns
// how many calls it made.
type micro struct {
	name  string  // per-layer metric name
	scale float64 // seconds per call -> metric unit (1e9 = ns, 1e6 = us)
	run   func() (calls int64, err error)
}

// runMicros times every layer benchmark and returns the metrics by
// name, plus any errors (a benchmark whose work fails is a failed op).
func runMicros(seed int64, tmp string) (map[string]float64, []error) {
	out := map[string]float64{}
	var errs []error
	for _, m := range micros(seed, tmp) {
		if _, err := m.run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.name, err))
			continue
		}
		per := make([]float64, 0, microReps)
		for rep := 0; rep < microReps; rep++ {
			runtime.GC() // start every rep from the same heap
			t := time.Now()
			calls, err := m.run()
			d := time.Since(t).Seconds()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", m.name, err))
				break
			}
			per = append(per, d/float64(calls)*m.scale)
		}
		out[m.name] = median(per)
	}
	return out, errs
}

func micros(seed int64, tmp string) []micro {
	stream := cacheStream(seed, 1<<20)
	return []micro{
		{"sim.event_ns", 1e9, benchEvents},
		{"sim.handoff_ns", 1e9, benchHandoff},
		{"sim.sleep_fast_ns", 1e9, benchSleepFast},
		{"cache.access_ns", 1e9, func() (int64, error) { return benchCache(stream), nil }},
		{"mem.word_ns", 1e9, func() (int64, error) { return benchMem(false), nil }},
		{"mem.u64_ns", 1e9, func() (int64, error) { return benchMem(true), nil }},
		{"core.access_ns", 1e9, func() (int64, error) { return benchAccess(false) }},
		{"consistency.access_checked_ns", 1e9, func() (int64, error) { return benchAccess(true) }},
		{"consistency.check_ns_per_op", 1e9, benchCheck},
		{"proto.hlrc_fault_us", 1e6, benchHLRCFault},
		{"proto.hlrc_release_us", 1e6, func() (int64, error) {
			return benchRelease(hlrc.New(hlrc.Config{Costs: proto.OriginalCosts()}))
		}},
		{"proto.lrc_release_us", 1e6, func() (int64, error) {
			return benchRelease(lrc.New(lrc.Config{Costs: proto.OriginalCosts()}))
		}},
		{"proto.sc_miss_us", 1e6, benchSCMiss},
		{"comm.send_ns", 1e9, func() (int64, error) { return benchSend(nil) }},
		{"comm.reliable_send_ns", 1e9, func() (int64, error) { return benchSend(&fault.Spec{Reliable: true}) }},
		{"comm.lossy_send_ns", 1e9, func() (int64, error) {
			return benchSend(&fault.Spec{Seed: uint64(seed), DropPPM: dropPPM})
		}},
		{"harness.key_us", 1e6, benchKey},
		{"runner.memo_hit_ns", 1e9, memoHits()},
	}
}

// --- sim ---

func benchEvents() (int64, error) {
	const n = 1_000_000
	e := sim.NewEngine()
	left := n
	var chain func()
	chain = func() {
		if left > 0 {
			left--
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	_, err := e.Run()
	return n, err
}

// benchHandoff makes two coroutines with interleaved wake-ups, so every
// sleep is a real stack handoff through the scheduler.
func benchHandoff() (int64, error) {
	const n = 200_000
	e := sim.NewEngine()
	body := func(c *sim.Coro) {
		for i := 0; i < n/2; i++ {
			c.Sleep(1)
		}
	}
	e.Spawn("a", 0, body)
	e.Spawn("b", 0, body)
	_, err := e.Run()
	return n, err
}

// benchSleepFast is a lone coroutine's sleep: the clock advances in
// place with no event and no handoff.
func benchSleepFast() (int64, error) {
	const n = 1_000_000
	e := sim.NewEngine()
	e.Spawn("a", 0, func(c *sim.Coro) {
		for i := 0; i < n; i++ {
			c.Sleep(100)
		}
	})
	_, err := e.Run()
	return n, err
}

// --- cache and mem ---

// cacheStream is a seeded word-address stream over twice the modelled
// L2: runs of sequential words broken by random jumps, so the probe
// sees L1 hits, L2 hits and misses.
func cacheStream(seed int64, n int) []int64 {
	region := int64(2 * cache.DefaultConfig().L2Size)
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	var a int64
	for i := range out {
		if rng.Intn(8) == 0 {
			a = rng.Int63n(region/4) * 4
		} else {
			a = (a + 4) % region
		}
		out[i] = a
	}
	return out
}

// streamHitPct is the L1 hit rate of the stream cache.access_ns is
// measured on.
func streamHitPct(seed int64) float64 {
	c := cache.New(cache.DefaultConfig())
	for i, a := range cacheStream(seed, 1<<20) {
		c.Access(a, 4, i&3 == 3)
	}
	return pct(float64(c.Accesses-c.L1Misses), float64(c.Accesses))
}

var sink uint64

func benchCache(stream []int64) int64 {
	c := cache.New(cache.DefaultConfig())
	var stall int64
	for i, a := range stream {
		s, _, _ := c.Access(a, 4, i&3 == 3)
		stall += s
	}
	sink += uint64(stall)
	return int64(len(stream))
}

func benchMem(wide bool) int64 {
	const size = 1 << 20
	const n = 2_000_000
	m := mem.NewNodeMem(size)
	for a := int64(0); a < size; a += mem.PageSize {
		m.WriteWord(a, 0)
	}
	var s uint64
	for i := 0; i < n; i++ {
		if wide {
			a := int64(i*8) & (size - 1)
			if i&1 == 0 {
				m.WriteU64(a, uint64(i))
			} else {
				s += m.ReadU64(a)
			}
		} else {
			a := int64(i*4) & (size - 1)
			if i&1 == 0 {
				m.WriteWord(a, uint32(i))
			} else {
				s += uint64(m.ReadWord(a))
			}
		}
	}
	sink += s
	return n
}

// --- core and consistency ---

// benchAccess is Thread.Load32/Store32 on the paper's 16-processor HLRC
// machine with the cache model on: each processor sweeps its own 256 KB
// region (homed on its own node, so no access faults), three loads per
// store.  Sixteen nodes' cache models and memories give the host the
// footprint of a real run, which one processor alone would not.  check
// adds the conformance recorder.
func benchAccess(check bool) (int64, error) {
	const procs, perProc = 16, 1 << 16
	const words = (256 << 10) / 4
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	cfg.MemLimit = procs*words*4 + 2*mem.PageSize
	if check {
		cfg.Check = consistency.NewRecorder(proto.ModelRC, procs)
	}
	m := core.NewMachine(cfg, hlrc.New(hlrc.Config{Costs: proto.OriginalCosts()}))
	bases := make([]int64, procs)
	for p := range bases {
		bases[p] = m.AllocPage(words * 4)
		m.Place(bases[p], words*4, p)
	}
	_, err := m.Run(func(t *core.Thread) {
		base := bases[t.Proc()]
		var s uint32
		for i := 0; i < perProc; i++ {
			a := base + int64(i%words)*4
			if i&3 == 3 {
				t.Store32(a, uint32(i))
			} else {
				s += t.Load32(a)
			}
		}
		sink += uint64(s)
	})
	return procs * perProc, err
}

// checkHistory records a conforming release-consistency history: four
// processors each write their own block of words, meet at a barrier,
// read their neighbour's block, and meet again.
func checkHistory() (*consistency.Recorder, int64) {
	const procs, words, phases = 4, 256, 50
	r := consistency.NewRecorder(proto.ModelRC, procs)
	var now, ops int64
	tick := func() int64 { now++; return now }
	addr := func(p, i int) int64 { return int64(p*words+i) * 4 }
	barrier := func(b int) {
		for p := int32(0); p < procs; p++ {
			r.BarrierArrive(p, b, tick())
		}
		for p := int32(0); p < procs; p++ {
			r.BarrierDepart(p, b, tick())
		}
		ops += 2 * procs
	}
	for k := 0; k < phases; k++ {
		for p := 0; p < procs; p++ {
			for i := 0; i < words; i++ {
				r.Access(int32(p), addr(p, i), 4, true, uint64(k*words+i), tick())
			}
		}
		barrier(2 * k)
		for p := 0; p < procs; p++ {
			q := (p + 1) % procs
			for i := 0; i < words; i++ {
				r.Access(int32(p), addr(q, i), 4, false, uint64(k*words+i), tick())
			}
		}
		barrier(2*k + 1)
		ops += 2 * procs * words
	}
	return r, ops
}

func benchCheck() (int64, error) {
	r, ops := checkHistory()
	if v := r.Check(); v != nil {
		return ops, v
	}
	return ops, nil
}

// --- proto ---

// protoMachine builds a two-node machine whose pages live on node 0, so
// every access node 1 makes to them goes through the protocol.
func protoMachine(p proto.Protocol, pages int) *core.Machine {
	cfg := core.DefaultConfig()
	cfg.Procs = 2
	cfg.MemLimit = int64(pages+8) * mem.PageSize
	return core.NewMachine(cfg, p)
}

// benchHLRCFault is node 1 reading one word of each of n pages homed on
// node 0: one page fault and page fetch per read.
func benchHLRCFault() (int64, error) {
	const n = 1000
	m := protoMachine(hlrc.New(hlrc.Config{Costs: proto.OriginalCosts()}), n)
	base := m.AllocPage(n * mem.PageSize)
	m.Place(base, n*mem.PageSize, 0)
	_, err := m.Run(func(t *core.Thread) {
		if t.Proc() != 1 {
			return
		}
		for i := int64(0); i < n; i++ {
			t.Load32(base + i*mem.PageSize)
		}
	})
	return n, err
}

// benchRelease is node 1 acquiring a lock managed by node 0, writing a
// page homed on node 0 and releasing: a write fault with its twin, and a
// diff at release, per iteration.
func benchRelease(p proto.Protocol) (int64, error) {
	const n = 1000
	m := protoMachine(p, 1)
	a := m.AllocPage(mem.PageSize)
	m.Place(a, mem.PageSize, 0)
	_, err := m.Run(func(t *core.Thread) {
		if t.Proc() != 1 {
			return
		}
		for i := 0; i < n; i++ {
			t.Acquire(0)
			t.Store32(a, uint32(i))
			t.Release(0)
		}
	})
	return n, err
}

// benchSCMiss is node 1 reading one word of each of n 64-byte blocks
// homed on node 0: one SC read miss per block.
func benchSCMiss() (int64, error) {
	const n, block = 4000, 64
	m := protoMachine(scfg.New(scfg.Config{Costs: proto.OriginalCosts(), BlockSize: block}), n*block/mem.PageSize)
	base := m.AllocPage(n * block)
	m.Place(base, n*block, 0)
	_, err := m.Run(func(t *core.Thread) {
		if t.Proc() != 1 {
			return
		}
		for i := int64(0); i < n; i++ {
			t.Load32(base + i*block)
		}
	})
	return n, err
}

// --- comm ---

// benchSend sends n 64-byte data messages from node 0 to node 1, one
// every 2,000 cycles, through the plain network (spec nil) or the
// reliable transport, and counts deliveries.
func benchSend(spec *fault.Spec) (int64, error) {
	const n = 100_000
	e := sim.NewEngine()
	nw := comm.NewNetwork(e, 2, comm.Achievable())
	send := nw.Send
	if spec != nil {
		send = comm.NewReliableNetwork(nw, *spec, comm.DefaultReliableParams()).Send
	}
	delivered := 0
	onDeliver := func(sim.Time) { delivered++ }
	e.Spawn("sender", 0, func(c *sim.Coro) {
		for i := 0; i < n; i++ {
			send(&comm.Message{Src: 0, Dst: 1, Kind: 1, Size: 64, OnDeliver: onDeliver})
			c.Sleep(2000)
		}
	})
	if _, err := e.Run(); err != nil {
		return n, err
	}
	if delivered != n {
		return n, fmt.Errorf("%d of %d messages delivered", delivered, n)
	}
	return n, nil
}

// --- harness and runner ---

func benchKey() (int64, error) {
	const n = 20_000
	spec := harness.DefaultSpec("fft", harness.HLRC)
	for i := 0; i < n; i++ {
		spec.Procs = 1 + i%64
		sink += uint64(len(spec.Key()))
	}
	return n, nil
}

// memoHits repeats one run through a session.  The warm-up call
// simulates it; every timed call after that is a memo hit.
func memoHits() func() (int64, error) {
	ses := harness.NewSession(1)
	spec := harness.DefaultSpec("water-spatial", harness.HLRC)
	spec.Scale, spec.Procs = apps.Tiny, 2
	return func() (int64, error) {
		const n = 200_000
		for i := 0; i < n; i++ {
			if _, err := ses.Run(spec); err != nil {
				return n, err
			}
		}
		return n, nil
	}
}

// --- store ---

// benchStore times Put (fresh keys), Get and Open (a 1,000-entry store)
// with a real result row as the payload.  It reports microseconds per
// Put and Get and milliseconds per Open.
func benchStore(tmp string) (map[string]float64, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := harness.DefaultSpec("fft", harness.HLRC)
	spec.Scale, spec.Procs = apps.Tiny, 4
	res, err := harness.Run(spec)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(harness.NewRunRow(res))
	if err != nil {
		return nil, err
	}
	const entries, puts = 1000, 200
	full, err := store.Open(dir+"/full", 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < entries; i++ {
		if err := full.Put(fmt.Sprintf("k%04d", i), payload); err != nil {
			return nil, err
		}
	}
	var putUs, getUs, openMs []float64
	for rep := 0; rep <= microReps; rep++ {
		st, err := store.Open(fmt.Sprintf("%s/put%d", dir, rep), 0)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		for i := 0; i < puts; i++ {
			if err := st.Put(fmt.Sprintf("k%04d", i), payload); err != nil {
				return nil, err
			}
		}
		put := time.Since(t).Seconds() / puts * 1e6
		t = time.Now()
		for i := 0; i < entries; i++ {
			if _, ok := full.Get(fmt.Sprintf("k%04d", i)); !ok {
				return nil, fmt.Errorf("store: entry %d missing", i)
			}
		}
		get := time.Since(t).Seconds() / entries * 1e6
		t = time.Now()
		reopened, err := store.Open(dir+"/full", 0)
		if err != nil {
			return nil, err
		}
		open := time.Since(t).Seconds() * 1e3
		if reopened.Len() != entries {
			return nil, fmt.Errorf("store: reopened %d of %d entries", reopened.Len(), entries)
		}
		if rep > 0 { // rep 0 warms up
			putUs, getUs, openMs = append(putUs, put), append(getUs, get), append(openMs, open)
		}
	}
	return map[string]float64{
		"store.put_us":  median(putUs),
		"store.get_us":  median(getUs),
		"store.open_ms": median(openMs),
	}, nil
}

// --- the ledger ---

// ledgerLine is one layer's share of a pass in the ledger.
type ledgerLine struct {
	layer   string
	seconds float64
}

// ledgerCounts sums what the simulation ledger multiplies: references,
// checked references and operations, and protocol operations by
// protocol.
func ledgerCounts(rows []harness.RunRow) map[string]float64 {
	out := map[string]float64{}
	for _, row := range rows {
		c := func(n string) float64 { return float64(row.Counters[n]) }
		refs := c("loads") + c("stores")
		out["refs"] += refs
		if s := row.Consistency; s != nil {
			out["checked_refs"] += refs
			out["checked_ops"] += float64(s.Loads + s.Stores + s.SyncOps)
		}
		p := string(row.Spec.Protocol)
		out[p+"_fetches"] += c("pageFetches") + c("blockFetches")
		out[p+"_diffs"] += c("diffsCreated")
	}
	return out
}

// simLedger attributes a simulation pass's host time as counts times
// per-call costs: the access path (core, cache, mem) per reference, the
// recorder and checker per checked operation, and the protocol per page
// fault, release and SC miss, each including its messages and engine
// events.  What it leaves over is app code, the engine's scheduling of
// everything else, and the runtime.
func simLedger(n, cost map[string]float64) []ledgerLine {
	check := n["checked_refs"]*(cost["consistency.access_checked_ns"]-cost["core.access_ns"])/1e9 +
		n["checked_ops"]*cost["consistency.check_ns_per_op"]/1e9
	protocol := (n["hlrc_fetches"]*cost["proto.hlrc_fault_us"] + n["hlrc_diffs"]*cost["proto.hlrc_release_us"] +
		n["lrc_fetches"]*cost["proto.hlrc_fault_us"] + n["lrc_diffs"]*cost["proto.lrc_release_us"] +
		n["sc_fetches"]*cost["proto.sc_miss_us"]) / 1e6
	return []ledgerLine{
		{"core+cache+mem", n["refs"] * cost["core.access_ns"] / 1e9},
		{"consistency", check},
		{"proto+comm+sim", protocol},
	}
}

// serviceLedger attributes the cold and warm phases from the daemon's
// own server-side means: simulations and store writes for cold jobs,
// store reads for warm jobs, spread over the daemon's simulation slots.
// What it leaves over is HTTP, JSON and queueing.
func serviceLedger(n, cost map[string]float64) []ledgerLine {
	return []ledgerLine{
		{"server simulations", n["cold"] * cost["server.sim_run_ms"] / 1e3 / serviceClients},
		{"server store", (n["cold"]*cost["server.store_put_us"] + n["warm"]*cost["server.store_get_us"]) / 1e6 / serviceClients},
	}
}
