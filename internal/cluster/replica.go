package cluster

import (
	"context"
	"log/slog"
	"time"

	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// This file is the standby side of the lease/epoch scheme: a follower
// loop that tails the primary's log, an apply function that replays
// records into the front end's job table, and the promotion path that
// turns the replayed jobs into a live schedule under a higher epoch.
//
// The scheme is deliberately not consensus.  There is one primary and
// one standby; the log is a simple sequenced stream; failover is
// detection (primary silent past FailoverAfter) plus promotion (epoch+1)
// plus fencing (any node seeing a higher epoch stops writing).  What
// makes this safe where it would normally lose work is the layer below:
// results are content-addressed and the simulator deterministic, so a
// record lost off the log tail costs at most a re-dispatch that the
// owning worker answers from its own store.

// follow tails the primary's log until the coordinator stops or the
// primary goes silent long enough to trigger promotion.
func (c *Coordinator) follow() {
	defer c.wg.Done()
	cl := client.New(c.cfg.PeerURL)
	cl.Retries = -1 // fail fast; this loop is the failure detector
	from := int64(1)
	lastContact := time.Now()
	for {
		if c.ctx.Err() != nil {
			return
		}
		reqCtx, cancel := context.WithTimeout(c.ctx, c.cfg.PollWait+2*time.Second)
		resp, err := cl.PollLog(reqCtx, from, true)
		cancel()
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			if time.Since(lastContact) > c.cfg.FailoverAfter {
				c.promote()
				return
			}
			select {
			case <-time.After(c.cfg.PollWait / 8):
			case <-c.ctx.Done():
				return
			}
			continue
		}
		lastContact = time.Now()
		c.fe.Lock()
		if resp.Epoch > c.epoch {
			c.epoch = resp.Epoch
		}
		// NextSeq-1 is the primary's log head as of this poll — the
		// standby side of the replication-lag measurement.
		if head := resp.NextSeq - 1; head > c.primarySeq {
			c.primarySeq = head
		}
		for _, rec := range resp.Records {
			if rec.Seq <= c.lastSeq {
				continue // replayed tail after a reconnect
			}
			c.applyLocked(rec)
			from = rec.Seq + 1
		}
		c.fe.Unlock()
	}
}

// applyLocked replays one log record into the front end's job table.
// Only jobs and sweeps are replicated; queue placement and leases are
// derived state the new primary rebuilds from the ring, and membership
// is re-learned live from the workers' own lease polls.  A replayed
// completion warms the standby's store, so a failover serves
// already-completed specs from its own coordinator cache.
func (c *Coordinator) applyLocked(rec api.ClusterLogRecord) {
	c.lastSeq = rec.Seq
	c.wal = append(c.wal, rec)
	close(c.walNotify)
	c.walNotify = make(chan struct{})
	t := c.tasks[rec.JobID]
	switch rec.Type {
	case api.ClusterLogSubmit:
		if rec.Req != nil && c.fe.JobLocked(rec.JobID) == nil {
			c.tasks[rec.JobID] = &task{job: c.fe.ReplayJobLocked(rec.JobID, *rec.Req)}
		}
	case api.ClusterLogCancel:
		if t != nil {
			delete(c.tasks, rec.JobID)
			c.fe.FinishLocked(t.job, "", nil, false, context.Canceled)
		}
	case api.ClusterLogComplete:
		if t == nil {
			return
		}
		delete(c.tasks, rec.JobID)
		c.fe.FinishLocked(t.job, rec.Worker, rec.Row, rec.Cached, errOf(rec.Error))
		if rec.Row != nil && rec.Error == "" {
			harness.SaveRow(c.fe.Store(), t.job.CoalesceKey(), rec.Row)
		}
	case api.ClusterLogSweep:
		c.fe.ReplaySweepLocked(rec.SweepID, rec.JobIDs)
	}
	// Membership records (join, lost) are informational on a standby:
	// liveness is whatever the workers prove to the *current* primary.
}

// promote turns this standby into the primary under a fresh epoch.
// Every non-terminal job becomes unassigned; workers re-register
// through their next lease poll (adopting the higher epoch, which
// fences the old primary if it is merely partitioned rather than dead)
// and the unassigned backlog drains onto the rebuilt ring.  Jobs that
// completed after the log tail was lost re-dispatch to the same ring
// home, whose store answers without re-simulating — results stay
// exactly-once at the content-key level even though the job record ran
// "twice".
func (c *Coordinator) promote() {
	c.fe.Lock()
	defer c.fe.Unlock()
	if c.role == api.RolePrimary {
		return
	}
	c.role = api.RolePrimary
	c.following = false
	c.epoch++
	if c.epoch < 2 {
		// A standby that never reached its primary still needs a higher
		// epoch than the default primary boot epoch (1).
		c.epoch = 2
	}
	c.ring = NewRing(0)
	c.workers = make(map[string]*workerState)
	c.unassigned = nil
	for _, t := range c.tasks { // replayed, so never placed
		c.unassigned = append(c.unassigned, t)
	}
	sortByID(c.unassigned)
	c.met.failovers.Inc()
	c.fe.Publish(api.Event{Type: "failover", Worker: c.cfg.NodeID})
	if c.log != nil {
		c.log.LogAttrs(c.ctx, slog.LevelWarn, "promoted to primary",
			slog.Int64("epoch", c.epoch),
			slog.Int64("logSeq", c.lastSeq),
			slog.Int("pendingJobs", len(c.unassigned)))
	}
}
