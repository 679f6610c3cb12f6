package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swsm/internal/apps"
	"swsm/internal/cluster"
	"swsm/internal/comm"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// The service workload drives an in-process svmd (two simulation slots,
// a store in a temporary directory) over real HTTP with two closed-loop
// clients: each client sends its next request only when the previous
// one has returned.  A round runs four timed phases:
//
//	cold     every generated spec once: simulate, then write the store
//	warm     repeat requests over those keys: each one is a store read
//	sweep    one POST /sweeps of warm keys on the daemon
//	cluster  the same points through a coordinator and two worker
//	         daemons whose stores already hold the entries, so the
//	         timed sweep runs no simulation and measures dispatch alone

// serviceClients is the number of closed-loop clients, and the daemon's
// simulation slots: one per CPU of the two-CPU host the bounds were
// measured on.
const serviceClients = 2

// serviceSizes sets how much work one service round does.
type serviceSizes struct {
	cold   int // cold specs (0 = every generated spec)
	warm   int // warm requests
	sweep  int // points of the local and the cluster sweep
	direct int // cold specs re-run directly through harness.Run to compare rows
}

// fullService is the workload's round; probeService is the small round
// the layer benchmarks run on every workload to time the service layers.
var (
	fullService  = serviceSizes{warm: 8000, sweep: 200, direct: 20}
	probeService = serviceSizes{cold: 60, warm: 1000, sweep: 60}
)

var serviceApps = []string{
	"barnes", "fft", "lu", "ocean", "ocean-rowwise", "radix", "raytrace",
	"volrend", "water-nsquared", "water-spatial",
}

// servicePlan is the seeded input of a service round.
type servicePlan struct {
	cold   []harness.RunSpec
	warm   []int // indices into cold
	sweep  []int
	direct []int
}

// servicePlanFor builds a round's input.  The cold specs are a fixed,
// balanced population at Tiny scale: 10 apps x {hlrc, lrc, sc} x {2, 4,
// 8} procs, each triple under two of the five comm sets {A, H, B, W, B+},
// rotated so every set is used equally often (180 of the 450 points).
// The seed orders them and draws the warm requests, the sweep points and
// the rows checked against direct runs.  Drawing the population itself
// from the seed would change the round's simulation cost from seed to
// seed.
func servicePlanFor(seed int64, sz serviceSizes) servicePlan {
	comms := comm.Names()
	var p servicePlan
	triple := 0
	for _, app := range serviceApps {
		for _, prot := range []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC} {
			for _, procs := range []int{2, 4, 8} {
				for _, ci := range []int{triple % len(comms), (triple + 2) % len(comms)} {
					cp, err := comm.ParamsByName(comms[ci])
					if err != nil {
						panic(err)
					}
					spec := harness.DefaultSpec(app, prot)
					spec.Scale = apps.Tiny
					spec.Procs = procs
					spec.Comm = cp
					p.cold = append(p.cold, spec)
				}
				triple++
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.cold), func(i, j int) { p.cold[i], p.cold[j] = p.cold[j], p.cold[i] })
	if sz.cold > 0 && sz.cold < len(p.cold) {
		p.cold = p.cold[:sz.cold]
	}
	n := len(p.cold)
	for i := 0; i < sz.warm; i++ {
		p.warm = append(p.warm, rng.Intn(n))
	}
	p.sweep = rng.Perm(n)[:min(sz.sweep, n)]
	p.direct = rng.Perm(n)[:min(sz.direct, n)]
	return p
}

// serviceRound is what one service round produced: its Layer map holds
// the server- and cluster-side timings of the round.
type serviceRound struct {
	roundResult
	rows []harness.RunRow // the cold rows
}

// runServiceRound sets up the daemon and the coordinator, runs the four
// timed phases and then checks the rows against direct harness runs.
func runServiceRound(seed int64, sz serviceSizes, tmp string, sp *spans, profile *profiler) (r serviceRound) {
	r.Workload = "service"
	r.Layer = map[string]float64{}
	plan := servicePlanFor(seed, sz)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	dir, err := os.MkdirTemp(tmp, "service-")
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	defer os.RemoveAll(dir)

	// Set-up: the daemon (which opens its empty store), the coordinator,
	// and one untimed warm-up job outside the cold set.
	t := time.Now()
	srv, err := server.New(server.Config{
		Parallel: serviceClients, QueueDepth: 4 * len(plan.cold),
		StoreDir: filepath.Join(dir, "local"),
	})
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	ts := httptest.NewServer(srv.Handler())
	sp.add("server", "server.New + store.Open", 0, t, nil)
	defer func() {
		ts.Close()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		srv.Drain(dctx)
	}()
	t = time.Now()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		NodeID: "coordinator", QueueDepth: 4 * len(plan.cold), HeartbeatTTL: 30 * time.Second,
	})
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	cts := httptest.NewServer(coord.Handler())
	sp.add("cluster", "cluster.NewCoordinator", 0, t, nil)
	defer func() {
		cts.Close()
		coord.Stop()
	}()

	transport := &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}
	defer transport.CloseIdleConnections()
	clients := make([]*client.Client, serviceClients)
	for i := range clients {
		clients[i] = client.New(ts.URL)
		clients[i].HTTP = &http.Client{Transport: transport}
	}
	warmup := harness.DefaultSpec("fft", harness.HLRC)
	warmup.Scale, warmup.Procs = apps.Tiny, 1
	t = time.Now()
	if _, err := clients[0].Run(ctx, api.RunRequest{Spec: warmup}); err != nil {
		r.fail("warm-up: %v", err)
		return r
	}
	sp.add("client", "client.Run warm-up", 0, t, nil)

	n := len(plan.cold)
	rowBytes := make([][]byte, n)
	r.rows = make([]harness.RunRow, n)
	profile.start()
	first := time.Now()
	r.FirstOp = first.UnixNano()

	// Cold: every spec simulates once and is written to the store.  Rows
	// are checked after each phase, outside the timing.
	lat, wall, sts := r.closedLoop(clients, n, sp, "cold", func(c *client.Client, i int) (*api.RunStatus, error) {
		return c.Run(ctx, api.RunRequest{Spec: plan.cold[i]})
	})
	r.SimLatMs, r.SimS = lat, wall
	for i, st := range sts {
		if st == nil {
			continue // failed, already counted
		}
		if st.State != api.StateDone || st.Row == nil || st.Cached {
			r.fail("cold job %s: state %s cached %t %s", st.ID, st.State, st.Cached, st.Error)
			continue
		}
		if rowBytes[i], err = json.Marshal(st.Row); err != nil {
			r.fail("cold job %s: %v", st.ID, err)
			continue
		}
		r.rows[i] = *st.Row
		r.SimCycles += st.Row.Cycles
	}
	coldMetrics := scrape(ts.URL, transport)

	// Warm: repeat requests over the cold keys, each a store read.
	lat, warmWall, sts := r.closedLoop(clients, len(plan.warm), sp, "warm", func(c *client.Client, i int) (*api.RunStatus, error) {
		return c.Run(ctx, api.RunRequest{Spec: plan.cold[plan.warm[i]]})
	})
	r.WarmLatMs = lat
	for i, st := range sts {
		if st != nil {
			if err := sameRow(st, rowBytes[plan.warm[i]], "warm"); err != nil {
				r.fail("warm request %d: %v", i, err)
			}
		}
	}
	warmMetrics := scrape(ts.URL, transport)

	// Sweep: one batch of warm keys on the daemon.
	points := make([]api.RunRequest, len(plan.sweep))
	for i, k := range plan.sweep {
		points[i] = api.RunRequest{Spec: plan.cold[k]}
	}
	sweepWall := r.sweep(ctx, clients[0], points, plan.sweep, rowBytes, sp, "sweep")

	// Cluster: copy the store's entry files into two worker daemons'
	// stores, start their agents (untimed), then time the same sweep
	// through the coordinator.
	t = time.Now()
	workers, stop, err := startWorkers(ctx, coord, cts.URL, filepath.Join(dir, "local"), dir)
	sp.add("cluster", "worker daemons + agents joined", 0, t, nil)
	if err != nil {
		stop()
		r.fail("cluster set-up: %v", err)
		return r
	}
	cc := client.New(cts.URL)
	cc.HTTP = &http.Client{Transport: transport}
	clusterWall := r.sweep(ctx, cc, points, plan.sweep, rowBytes, sp, "cluster")
	var sims int64
	for _, w := range workers {
		sims += w.RunnerStats().Runs
	}
	r.Layer["cluster.redispatches"] = float64(coord.Status().Redispatches)
	profile.stop(&r.roundResult)
	stop()
	if sims != 0 {
		r.fail("cluster sweep ran %d simulations; every point should have been a store hit", sims)
	}

	r.PassS = wall + warmWall + sweepWall + clusterWall
	r.LedgerS = wall + warmWall
	r.SweepPerS = float64(len(points)) / sweepWall
	r.ClusterPerS = float64(len(points)) / clusterWall
	r.serverLayer(coldMetrics, warmMetrics, srv)

	// Rows served by the daemon must equal rows simulated directly.
	for _, k := range plan.direct {
		r.Attempted++
		res, err := harness.Run(plan.cold[k])
		if err != nil {
			r.fail("direct run %s: %v", plan.cold[k].App, err)
			continue
		}
		data, err := json.Marshal(harness.NewRunRow(res))
		if err != nil || !bytes.Equal(data, rowBytes[k]) {
			r.fail("direct run of %s/%s/%dp differs from the daemon's row", plan.cold[k].App, plan.cold[k].Protocol, plan.cold[k].Procs)
		}
	}
	rows := make(map[string][]byte, n)
	served := r.rows[:0]
	for i, row := range r.rows {
		if rowBytes[i] != nil {
			rows[row.Key] = rowBytes[i]
			served = append(served, row)
		}
	}
	r.rows = served
	r.Digest = digest(rows)
	return r
}

// closedLoop runs n requests from the clients, each client sending its
// next request as soon as its previous one returns.  It returns every
// successful request's latency in milliseconds, the phase's wall time,
// and the statuses by request (nil where the request failed).
func (r *serviceRound) closedLoop(clients []*client.Client, n int, sp *spans, phase string, do func(*client.Client, int) (*api.RunStatus, error)) ([]float64, float64, []*api.RunStatus) {
	var next atomic.Int64
	var mu sync.Mutex
	lat := make([]float64, 0, n)
	sts := make([]*api.RunStatus, n)
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := time.Now()
				st, err := do(c, i)
				ms := time.Since(t).Seconds() * 1e3
				sp.add("client", "client.Run "+phase, 2+ci, t, map[string]any{"op": i})
				sts[i] = st
				mu.Lock()
				r.Attempted++
				if err != nil {
					r.fail("%s request %d: %v", phase, i, err)
				} else {
					lat = append(lat, ms)
				}
				mu.Unlock()
			}
		}(ci, c)
	}
	wg.Wait()
	sp.add("bench", phase, 1, start, map[string]any{"requests": n})
	return lat, time.Since(start).Seconds(), sts
}

// sweep submits one sweep and checks every point's row.
func (r *serviceRound) sweep(ctx context.Context, c *client.Client, points []api.RunRequest, keys []int, rowBytes [][]byte, sp *spans, phase string) float64 {
	t := time.Now()
	st, err := c.Sweep(ctx, api.SweepRequest{Points: points})
	wall := time.Since(t).Seconds()
	sp.add("client", "client.Sweep "+phase, 2, t, map[string]any{"points": len(points)})
	sp.add("bench", phase, 1, t, map[string]any{"points": len(points)})
	r.Attempted += len(points)
	switch {
	case err != nil:
		r.fail("%s: %v", phase, err)
		r.Failed += len(points) - 1
	case len(st.Points) != len(points):
		r.fail("%s: %d of %d points returned", phase, len(st.Points), len(points))
		r.Failed += len(points) - 1
	default:
		for i := range st.Points {
			if err := sameRow(&st.Points[i], rowBytes[keys[i]], phase); err != nil {
				r.fail("%s point %d: %v", phase, i, err)
			}
		}
	}
	return wall
}

// sameRow checks that a request was served from the store with exactly
// the row its cold request returned.
func sameRow(st *api.RunStatus, want []byte, phase string) error {
	if st.State != api.StateDone || st.Row == nil {
		return fmt.Errorf("%s job %s: state %s %s", phase, st.ID, st.State, st.Error)
	}
	if !st.Cached {
		return fmt.Errorf("%s job %s was simulated, not served from the store", phase, st.ID)
	}
	got, err := json.Marshal(st.Row)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s job %s: row differs from the cold row", phase, st.ID)
	}
	return nil
}

// startWorkers copies the daemon's store entries into two fresh store
// directories, starts a worker daemon (one simulation slot) on each and
// an agent leasing from the coordinator, and waits until both joined.
// stop cancels the agents and drains the daemons.
func startWorkers(ctx context.Context, coord *cluster.Coordinator, coordURL, storeDir, dir string) ([]*server.Server, func(), error) {
	actx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var daemons []*server.Server
	stop := func() {
		cancel()
		wg.Wait()
		for _, d := range daemons {
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			d.Drain(dctx)
			dcancel()
		}
	}
	for _, id := range []string{"w1", "w2"} {
		wdir := filepath.Join(dir, id)
		if err := copyFiles(storeDir, wdir); err != nil {
			return nil, stop, err
		}
		d, err := server.New(server.Config{Parallel: 1, StoreDir: wdir})
		if err != nil {
			return nil, stop, err
		}
		daemons = append(daemons, d)
		agent, err := cluster.NewWorker(cluster.WorkerConfig{
			ID: id, Coordinators: []string{coordURL}, Server: d, Poll: time.Millisecond,
		})
		if err != nil {
			return nil, stop, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			agent.Run(actx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(coord.Status().Workers) < len(daemons) {
		if time.Now().After(deadline) {
			return nil, stop, fmt.Errorf("workers did not join within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	return daemons, stop, nil
}

// copyFiles copies every regular file of src into dst.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	des, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// scrape reads the daemon's Prometheus exposition into a map of series
// to values (histogram _sum and _count series included).
func scrape(base string, tr *http.Transport) map[string]float64 {
	out := map[string]float64{}
	resp, err := (&http.Client{Transport: tr}).Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// histMean is the mean of a histogram between two scrapes.
func histMean(before, after map[string]float64, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n
}

// serverLayer derives the server-side timings of the round from the
// daemon's own histograms and the clients' latencies.
func (r *serviceRound) serverLayer(cold, warm map[string]float64, srv *server.Server) {
	zero := map[string]float64{}
	l := r.Layer
	l["server.queue_wait_ms"] = histMean(zero, warm, "svmd_queue_wait_seconds") * 1e3
	l["server.sim_run_ms"] = histMean(zero, cold, "svmd_sim_run_seconds") * 1e3
	l["server.store_put_us"] = histMean(zero, cold, "svmd_store_put_seconds") * 1e6
	l["server.store_get_us"] = histMean(cold, warm, "svmd_store_get_seconds") * 1e6
	warmServer := histMean(cold, warm, "svmd_run_seconds") + histMean(cold, warm, "svmd_queue_wait_seconds")
	if p50, ok := percentile(r.WarmLatMs, 0.5); ok {
		l["server.http_overhead_us"] = (p50/1e3 - warmServer) * 1e6
		l["server.warm_p50_ms"] = p50
	}
	if v, ok := percentile(r.SimLatMs, 0.5); ok {
		l["server.cold_p50_ms"] = v
	}
	if v, ok := percentile(r.WarmLatMs, 0.99); ok {
		l["server.warm_p99_ms"] = v
	}
	l["server.sweep_points_per_s"] = r.SweepPerS
	l["cluster.sweep_points_per_s"] = r.ClusterPerS
	l["cluster.dispatch_ms_per_point"] = 1e3/r.ClusterPerS - 1e3/r.SweepPerS
	st := srv.StoreStats()
	l["store.hit_pct"] = pct(float64(st.Hits), float64(st.Hits+st.Misses))
}
