package replica

import (
	"time"

	"neobft/internal/batch"
	"neobft/internal/replication"
	"neobft/internal/transport"
)

// ReqKey identifies one client request.
type ReqKey struct {
	Client transport.NodeID
	ReqID  uint64
}

// KeyOf returns req's key.
func KeyOf(req *replication.Request) ReqKey { return ReqKey{req.Client, req.ReqID} }

// Queue is a leader's request queue: the batcher's single owner, plus the
// set of requests queued or proposed but not yet executed, so a client's
// retransmission is queued once.
type Queue struct {
	*batch.Batcher
	core   *Core
	queued map[ReqKey]struct{}
}

// NewQueue builds the leader queue. When cfg lingers, a runtime timer
// calls issue often enough that a deferred batch is cut on time even if
// no further request arrives to trigger it. The batcher reports into the
// replica's registry.
func (c *Core) NewQueue(cfg batch.Config, issue func()) *Queue {
	q := &Queue{Batcher: batch.NewMetered(cfg, c.reg), core: c, queued: map[ReqKey]struct{}{}}
	if cfg.MaxLinger > 0 {
		c.rt.ArmEvery(pollInterval(cfg.MaxLinger), issue)
	}
	return q
}

// pollInterval is half the linger bound, floored at 500µs so tiny
// lingers do not spin the loop; the 10ms protocol tick is far too coarse
// for sub-millisecond lingers.
func pollInterval(linger time.Duration) time.Duration {
	return max(linger/2, 500*time.Microsecond)
}

// Add queues req with the active trace ref unless it is already queued.
func (q *Queue) Add(req *replication.Request) {
	k := KeyOf(req)
	if _, ok := q.queued[k]; ok {
		return
	}
	q.queued[k] = struct{}{}
	q.Put(req, q.core.rt.Tracer().ActiveRef())
}

// Queued reports whether req is queued and not yet Done.
func (q *Queue) Queued(req *replication.Request) bool {
	_, ok := q.queued[KeyOf(req)]
	return ok
}

// Done forgets req once it has executed or another leader carries it.
func (q *Queue) Done(req *replication.Request) { delete(q.queued, KeyOf(req)) }
