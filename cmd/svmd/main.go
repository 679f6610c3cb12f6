// Command svmd is the experiment service daemon: a long-lived HTTP/JSON
// server that executes simulation runs on a bounded scheduler, coalesces
// identical in-flight requests, and answers repeated configurations from
// a persistent content-addressed result store — so a warm daemon serves
// sweep reruns without re-simulating, across restarts.
//
// Examples:
//
//	svmd -addr :7099 -store /var/tmp/svmd-store
//	curl -s localhost:7099/healthz
//	curl -s -X POST 'localhost:7099/runs?wait=1' -d '{"spec":{...},"speedup":true}'
//	curl -N localhost:7099/events
//	curl -s localhost:7099/metrics                 # Prometheus exposition
//	curl -s 'localhost:7099/metrics?format=json'   # JSON snapshot
//
// Cluster modes (see README "Running a cluster"):
//
//	svmd -coordinator -addr :7100                        # primary coordinator
//	svmd -coordinator -addr :7101 -standby-of http://127.0.0.1:7100
//	svmd -addr :7110 -join http://127.0.0.1:7100,http://127.0.0.1:7101 -node-id w1
//
// A coordinator is the daemon's job front end over a cluster executor:
// it serves the same job API (traces and pprof included) and shards
// admitted work across its workers by consistent hashing on the result
// content key; a worker is a normal daemon plus an agent that polls the
// coordinator for leases and executes them locally.  The poll is the
// whole worker protocol: the first one registers the worker, each one is
// its heartbeat (-heartbeat-ttl), and each one names the jobs it holds,
// so a worker restarted under the same -node-id gives its old jobs back
// at once.  A flag the selected mode ignores is rejected (exit 2).
//
// Observability: structured leveled logs go to stderr (-log-level,
// -log-json), every job's records carry its ID from enqueue to store
// write, /metrics serves Prometheus text by default, /debug/pprof/* is
// mounted, and -slo-ms arms a latency objective whose breaches (and any
// job failure) dump the flight recorder into -debug-dir.
//
// SIGTERM/SIGINT drain gracefully: new submissions get 503, queued and
// running jobs finish (bounded by -drain-timeout, after which queued
// work is cancelled), and every computed result is already durable in
// the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swsm/internal/cli"
	"swsm/internal/cluster"
	"swsm/internal/obs"
	"swsm/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7099", "listen address")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4x workers); per-worker dispatch queue depth in -coordinator mode (0 = 64)")
		storeDir = flag.String("store", defaultStoreDir(), "persistent result store directory (empty = no persistence)")
		storeMax = flag.Int64("store-max", 256<<20, "result store size bound in bytes")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling queued work")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON lines instead of human-readable text")
		sloMS    = flag.Int64("slo-ms", 0, "per-job latency objective in milliseconds; breaches dump the flight recorder (0 = disabled)")
		debugDir = flag.String("debug-dir", "", "directory for flight-recorder dumps on job failure or SLO breach (empty = in-memory ring only)")

		// Cluster flags.
		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator instead of an execution daemon")
		standbyOf   = flag.String("standby-of", "", "coordinator mode: follow this primary's log and take over on its failure")
		joinURLs    = flag.String("join", "", "worker mode: comma-separated coordinator URLs to lease jobs from (primary first)")
		nodeID      = flag.String("node-id", "", "stable cluster identity (default: host:port of -addr); ring placement hashes it")
		hbTTL       = flag.Duration("heartbeat-ttl", cluster.DefaultHeartbeatTTL, "coordinator: declare a worker lost after this much heartbeat silence")
		failAfter   = flag.Duration("failover-after", 0, "standby: promote after this much primary silence (0 = 3x heartbeat-ttl)")
		leasePoll   = flag.Duration("lease-poll", 200*time.Millisecond, "worker: lease poll / heartbeat interval")
	)
	flag.Parse()
	if err := checkFlags(cli.Set(flag.CommandLine), *coordinator, *joinURLs != ""); err != nil {
		fmt.Fprintf(os.Stderr, "svmd: %v\n", err)
		os.Exit(2)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)

	id := *nodeID
	if id == "" {
		id = *addr
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Both modes serve the same job front end; they differ in what runs
	// the jobs and in how they stop.
	var (
		handler  http.Handler
		shutdown func()
	)
	if *coordinator {
		c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			NodeID:        id,
			StoreDir:      *storeDir,
			StoreMaxBytes: *storeMax,
			QueueDepth:    *queue,
			HeartbeatTTL:  *hbTTL,
			FailoverAfter: *failAfter,
			PeerURL:       *standbyOf,
			Logger:        logger,
		})
		if err != nil {
			logger.Error("coordinator startup failed", "error", err)
			os.Exit(1)
		}
		logger.Info("coordinator listening",
			"addr", *addr, "id", id, "role", c.Role(),
			"store", *storeDir, "standbyOf", *standbyOf)
		handler = c.Handler()
		shutdown = func() {
			c.Stop()
			st := c.Status()
			logger.Info("coordinator stopped",
				"role", st.Role, "epoch", st.Epoch, "logSeq", st.LogSeq,
				"redispatches", st.Redispatches, "duplicates", st.Duplicates)
		}
	} else {
		srv, err := server.New(server.Config{
			Parallel:      *parallel,
			QueueDepth:    *queue,
			StoreDir:      *storeDir,
			StoreMaxBytes: *storeMax,
			Logger:        logger,
			SLO:           time.Duration(*sloMS) * time.Millisecond,
			DebugDir:      *debugDir,
		})
		if err != nil {
			logger.Error("startup failed", "error", err)
			os.Exit(1)
		}
		st := srv.StoreStats()
		logger.Info("listening",
			"addr", *addr, "store", *storeDir,
			"warmEntries", st.Entries, "warmBytes", st.Bytes)
		handler = srv.Handler()

		// Worker mode: lease jobs from the coordinator(s) alongside the
		// local HTTP API (a worker is still a fully usable daemon).
		workerDone := make(chan struct{})
		if *joinURLs != "" {
			urls := strings.Split(*joinURLs, ",")
			for i := range urls {
				urls[i] = strings.TrimSpace(urls[i])
			}
			agent, err := cluster.NewWorker(cluster.WorkerConfig{
				ID: id, Coordinators: urls, Server: srv,
				Poll: *leasePoll, Logger: logger,
			})
			if err != nil {
				logger.Error("worker startup failed", "error", err)
				os.Exit(1)
			}
			logger.Info("joining cluster", "id", id, "coordinators", urls)
			go func() {
				defer close(workerDone)
				agent.Run(ctx)
			}()
		} else {
			close(workerDone)
		}
		shutdown = func() {
			logger.Info("draining", "timeout", *drainTO)
			<-workerDone
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
			defer cancel()
			if err := srv.Drain(drainCtx); err != nil {
				logger.Warn("drain incomplete, queued work cancelled", "error", err)
			}
			m := srv.Metrics()
			logger.Info("stopped",
				"simulations", m.Runner.Runs,
				"storeHitRatio", m.StoreHitRatio,
				"evictions", m.Store.Evictions)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	}
	shutdown()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown", "error", err)
	}
}

// modeFlags names the mode-specific flags each mode reads; a flag set
// in a mode that does not read it would be silently ignored, so it is
// rejected.
var modeFlags = map[string]string{
	"daemon":      "parallel drain-timeout slo-ms debug-dir",
	"worker":      "parallel drain-timeout slo-ms debug-dir node-id join lease-poll",
	"coordinator": "node-id standby-of heartbeat-ttl failover-after",
}

// checkFlags rejects the explicitly set flags (in flag.Visit's sorted
// order) that the selected mode ignores.
func checkFlags(set []string, coordinator, join bool) error {
	mode := "daemon"
	switch {
	case coordinator:
		mode = "coordinator"
	case join:
		mode = "worker"
	}
	return cli.CheckFlags(set, modeFlags, mode+" mode", mode)
}

// defaultStoreDir places the store under the user cache dir, falling
// back to a temp path when none is known.
func defaultStoreDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return fmt.Sprintf("%s/svmd/store", dir)
	}
	return fmt.Sprintf("%s/svmd-store", os.TempDir())
}
