// Package batch is the shared request-batching layer used by every
// leader-driven protocol in this repository (PBFT, Zyzzyva, HotStuff,
// MinBFT). It replaces the per-protocol pending queues with one
// instrumented batcher implementing a hybrid cut policy — a batch is
// cut when it reaches the size target, the byte cap, or its oldest
// request has lingered too long — plus an adaptive sizing rule that
// scales the size target with observed queue depth, and a canonical
// wire codec for batches of client requests (codec.go).
//
// The batcher is not internally synchronized: each replica owns one and
// calls it under the same mutex that guards the rest of its protocol
// state, on the runtime loop goroutine.
package batch

import (
	"time"

	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/tracing"
)

// CutReason says which rule of the hybrid policy cut a batch.
type CutReason uint8

// Cut reasons.
const (
	// CutCount: the queue reached the size target (MaxCount, or the
	// adaptive target when Adaptive is set).
	CutCount CutReason = iota
	// CutBytes: the batch payload reached MaxBytes.
	CutBytes
	// CutLinger: the oldest queued request waited MaxLinger.
	CutLinger
	// CutFlush: an immediate cut — either MaxLinger is zero (the legacy
	// cut-whenever-polled behavior) or the caller forced a Flush.
	CutFlush

	numReasons
)

var reasonNames = [numReasons]string{"count", "bytes", "linger", "flush"}

// String returns the reason's metric/report name.
func (c CutReason) String() string {
	if int(c) < len(reasonNames) {
		return reasonNames[c]
	}
	return "unknown"
}

// Config configures a Batcher. The zero value of every knob reproduces
// the seed behavior: batches of up to DefaultMaxCount requests, cut
// immediately whenever the caller polls.
type Config struct {
	// MaxCount caps requests per batch (default DefaultMaxCount).
	MaxCount int
	// MaxBytes caps the marshaled request payload per batch (default
	// DefaultMaxBytes). A batch always carries at least one request,
	// however large.
	MaxBytes int
	// MaxLinger bounds how long the oldest queued request may wait
	// before a cut is forced. Zero disables lingering entirely: every
	// poll with a non-empty queue cuts, preserving the pre-batcher
	// behavior of the leader protocols.
	MaxLinger time.Duration
	// Adaptive scales the batch-size target with observed queue depth
	// (see target): shallow queues cut small batches immediately for
	// latency, deep queues grow batches toward MaxCount for throughput.
	// Requires MaxLinger > 0 to bound the wait when load stops.
	Adaptive bool
}

// Defaults.
const (
	DefaultMaxCount = 8
	DefaultMaxBytes = 256 << 10
)

// Batch is one cut: the requests in arrival order, their queue-entry
// trace refs (same indexing), the marshaled payload bytes, and why the
// cut happened.
type Batch struct {
	Reqs   []*replication.Request
	Refs   []tracing.Ref
	Bytes  int
	Reason CutReason
}

// EndOrder closes every request's ordering span at sequence-number
// assignment (nil-safe, like all tracing calls).
func (b *Batch) EndOrder(tr *tracing.Tracer, seq uint64) {
	for _, ref := range b.Refs {
		tr.EndOrder(ref, seq)
	}
}

// Batcher accumulates client requests and cuts them into batches per
// the hybrid count/bytes/linger policy. Not internally synchronized.
type Batcher struct {
	cfg Config

	reqs  []*replication.Request
	refs  []tracing.Ref
	sizes []int // marshaled size per queued request
	bytes int   // sum of sizes
	// firstAt is when the oldest queued request arrived (linger clock).
	firstAt time.Time

	// depthEWMA tracks queue depth in 1/8ths (fixed point) for the
	// adaptive target.
	depthEWMA int

	hSize   *metrics.Histogram
	hBytes  *metrics.Histogram
	gDepth  *metrics.Gauge
	cutCtrs [numReasons]*metrics.Counter
}

// New creates an uninstrumented batcher.
func New(cfg Config) *Batcher { return NewMetered(cfg, nil) }

// NewMetered creates a batcher that reports into reg the proto_batch_*
// series: size and byte histograms per cut, one counter per cut reason,
// and the queue depth gauge. A nil reg disables instrumentation (all
// no-ops).
func NewMetered(cfg Config, reg *metrics.Registry) *Batcher {
	if cfg.MaxCount <= 0 {
		cfg.MaxCount = DefaultMaxCount
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	b := &Batcher{cfg: cfg}
	if reg != nil {
		b.hSize = reg.Histogram("proto_batch_size")
		b.hBytes = reg.Histogram("proto_batch_bytes")
		b.gDepth = reg.Gauge("proto_batch_queue_depth")
		for r := CutReason(0); r < numReasons; r++ {
			b.cutCtrs[r] = reg.Counter("proto_batch_cut_" + r.String() + "_total")
		}
	}
	return b
}

// Put queues one request with its trace ref (zero Ref when untraced).
// The caller is responsible for deduplication — the leader protocols
// keep their (client, reqID) in-queue sets.
func (b *Batcher) Put(req *replication.Request, ref tracing.Ref) {
	if len(b.reqs) == 0 {
		b.firstAt = time.Now()
	}
	b.reqs = append(b.reqs, req)
	b.refs = append(b.refs, ref)
	sz := requestWireSize(req)
	b.sizes = append(b.sizes, sz)
	b.bytes += sz
	b.gDepth.Set(int64(len(b.reqs)))
	// EWMA with alpha = 1/8 over the depth observed at each arrival.
	// The arithmetic shift floors the step, so negative deltas always
	// make progress and the EWMA fully decays when load stops.
	b.depthEWMA += (len(b.reqs)*8 - b.depthEWMA) >> 3
}

// Len reports the queued request count.
func (b *Batcher) Len() int { return len(b.reqs) }

// PendingBytes reports the queued payload bytes.
func (b *Batcher) PendingBytes() int { return b.bytes }

// target is the batch-size target: MaxCount, or — in adaptive mode —
// the depth EWMA clamped to [1, MaxCount], so the target tracks demand.
func (b *Batcher) target() int {
	if !b.cfg.Adaptive {
		return b.cfg.MaxCount
	}
	t := (b.depthEWMA + 7) / 8 // ceil
	if t < 1 {
		t = 1
	}
	if t > b.cfg.MaxCount {
		t = b.cfg.MaxCount
	}
	return t
}

// ready classifies whether the policy would cut now (reason valid only
// when ok).
func (b *Batcher) ready(now time.Time) (CutReason, bool) {
	if len(b.reqs) == 0 {
		return 0, false
	}
	if len(b.reqs) >= b.target() {
		return CutCount, true
	}
	if b.bytes >= b.cfg.MaxBytes {
		return CutBytes, true
	}
	if b.cfg.MaxLinger <= 0 {
		return CutFlush, true
	}
	if now.Sub(b.firstAt) >= b.cfg.MaxLinger {
		return CutLinger, true
	}
	return 0, false
}

// Ready reports whether Cut would return a batch at time now.
func (b *Batcher) Ready(now time.Time) bool {
	_, ok := b.ready(now)
	return ok
}

// NextDeadline returns when the linger rule will force a cut of the
// currently queued requests (ok=false when the queue is empty or no
// linger bound is configured). Callers arm a timer for it so deferred
// batches are not stranded waiting for the next arrival.
func (b *Batcher) NextDeadline() (time.Time, bool) {
	if len(b.reqs) == 0 || b.cfg.MaxLinger <= 0 {
		return time.Time{}, false
	}
	return b.firstAt.Add(b.cfg.MaxLinger), true
}

// Cut returns the next batch if the policy allows one at time now.
func (b *Batcher) Cut(now time.Time) (Batch, bool) {
	reason, ok := b.ready(now)
	if !ok {
		return Batch{}, false
	}
	return b.take(reason), true
}

// Flush cuts unconditionally (reason CutFlush) — used when a batch must
// ship regardless of policy, e.g. a new leader draining its queue.
func (b *Batcher) Flush(now time.Time) (Batch, bool) {
	if len(b.reqs) == 0 {
		return Batch{}, false
	}
	reason, ok := b.ready(now)
	if !ok {
		reason = CutFlush
	}
	return b.take(reason), true
}

// take removes up to MaxCount / MaxBytes worth of requests from the
// queue head and records the cut.
func (b *Batcher) take(reason CutReason) Batch {
	n, nb := 0, 0
	for n < len(b.reqs) && n < b.cfg.MaxCount {
		if n > 0 && nb+b.sizes[n] > b.cfg.MaxBytes {
			break
		}
		nb += b.sizes[n]
		n++
	}
	out := Batch{
		Reqs:   append([]*replication.Request(nil), b.reqs[:n]...),
		Refs:   append([]tracing.Ref(nil), b.refs[:n]...),
		Bytes:  nb,
		Reason: reason,
	}
	// Clear the moved-out prefix so the backing array does not pin
	// request payloads.
	copy(b.reqs, b.reqs[n:])
	for i := len(b.reqs) - n; i < len(b.reqs); i++ {
		b.reqs[i] = nil
	}
	b.reqs = b.reqs[:len(b.reqs)-n]
	copy(b.refs, b.refs[n:])
	b.refs = b.refs[:len(b.refs)-n]
	copy(b.sizes, b.sizes[n:])
	b.sizes = b.sizes[:len(b.sizes)-n]
	b.bytes -= nb
	if len(b.reqs) > 0 {
		// Approximation: the surviving head arrived no later than now;
		// restarting the linger clock here only delays, never loses, a
		// cut by at most one linger period.
		b.firstAt = time.Now()
	}
	b.hSize.Observe(uint64(len(out.Reqs)))
	b.hBytes.Observe(uint64(nb))
	b.cutCtrs[reason].Inc()
	b.gDepth.Set(int64(len(b.reqs)))
	return out
}

// Filter drops queued requests for which keep returns false (with their
// refs and byte accounting), preserving order. HotStuff uses it to shed
// requests another leader already committed before proposing.
func (b *Batcher) Filter(keep func(*replication.Request) bool) {
	out := 0
	for i, req := range b.reqs {
		if !keep(req) {
			b.bytes -= b.sizes[i]
			continue
		}
		b.reqs[out] = req
		b.refs[out] = b.refs[i]
		b.sizes[out] = b.sizes[i]
		out++
	}
	for i := out; i < len(b.reqs); i++ {
		b.reqs[i] = nil
	}
	b.reqs = b.reqs[:out]
	b.refs = b.refs[:out]
	b.sizes = b.sizes[:out]
	b.gDepth.Set(int64(out))
}
