package cluster

import (
	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// clusterMetrics is the coordinator's own Prometheus series, registered
// on the front end's registry next to the daemon's job counters.
// Aggregate gauges are read at scrape time under the front end's lock,
// like the front end's own; per-worker gauges are refreshed under that
// lock by updateGaugesLocked as workers come and go.
type clusterMetrics struct {
	coordCacheHits  *obs.Counter // answered from the coordinator's own store
	workerCacheHits *obs.Counter // worker reported cached=true
	redispatches    *obs.Counter
	duplicates      *obs.Counter
	failovers       *obs.Counter

	// Per-worker families (label values appear as workers join).
	stolen     *obs.CounterVec // jobs stolen BY a worker (the thief)
	workerDone *obs.CounterVec
	queueDepth *obs.GaugeVec
	leased     *obs.GaugeVec
}

func newClusterMetrics(reg *obs.Registry, c *Coordinator) *clusterMetrics {
	gauge := func(name, help string, get func() float64) {
		reg.GaugeFunc(name, help, "", func() float64 {
			c.fe.Lock()
			defer c.fe.Unlock()
			return get()
		})
	}
	gauge("svmd_cluster_workers", "Live joined workers.", func() float64 { return float64(len(c.workers)) })
	gauge("svmd_cluster_epoch", "Current coordination epoch.", func() float64 { return float64(c.epoch) })
	gauge("svmd_cluster_is_primary", "1 when this coordinator is the primary, 0 on a standby.", func() float64 {
		if c.role == api.RolePrimary {
			return 1
		}
		return 0
	})
	gauge("svmd_cluster_unassigned_jobs", "Jobs waiting for any worker to join.", func() float64 { return float64(len(c.unassigned)) })
	gauge("svmd_cluster_log_seq", "Highest sequence number in the replicated log.", func() float64 { return float64(c.lastSeq) })
	gauge("svmd_cluster_replication_lag", "Replication backlog in log records: head minus last follower-confirmed seq (primary) or last applied seq minus primary head (standby).", func() float64 { return float64(c.replicationLagLocked()) })
	return &clusterMetrics{
		coordCacheHits:  reg.Counter("svmd_cluster_cache_hits_total", "Jobs answered from a cluster cache tier without simulating.", `tier="coordinator"`),
		workerCacheHits: reg.Counter("svmd_cluster_cache_hits_total", "Jobs answered from a cluster cache tier without simulating.", `tier="worker"`),
		redispatches:    reg.Counter("svmd_cluster_redispatches_total", "Jobs re-dispatched after a lost worker or an expired lease.", ""),
		duplicates:      reg.Counter("svmd_cluster_duplicate_completions_total", "Duplicate completions discarded idempotently.", ""),
		failovers:       reg.Counter("svmd_cluster_failovers_total", "Promotions of this coordinator from standby to primary.", ""),

		stolen:     reg.CounterVec("svmd_cluster_jobs_stolen_total", "Jobs stolen from another worker's queue, by thief.", "worker"),
		workerDone: reg.CounterVec("svmd_cluster_worker_jobs_total", "Completions reported, by worker.", "worker"),
		queueDepth: reg.GaugeVec("svmd_cluster_worker_queue_depth", "Dispatch-queue depth, by worker.", "worker"),
		leased:     reg.GaugeVec("svmd_cluster_worker_leased", "Jobs currently leased, by worker.", "worker"),
	}
}
