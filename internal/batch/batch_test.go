package batch

import (
	"fmt"
	"testing"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/tracing"
	"neobft/internal/transport"
)

func req(i int) *replication.Request {
	return &replication.Request{
		Client: transport.NodeID(10000 + i),
		ReqID:  uint64(i),
		Op:     []byte(fmt.Sprintf("op-%d", i)),
		Auth:   []byte("mac"),
	}
}

func fill(b *Batcher, n int) {
	for i := 0; i < n; i++ {
		b.Put(req(i), tracing.Ref{Trace: uint64(i + 1)})
	}
}

// With no linger configured the batcher cuts whenever polled — the
// exact behavior of the per-protocol queues it replaced.
func TestCutImmediateWithoutLinger(t *testing.T) {
	b := New(Config{MaxCount: 8})
	now := time.Now()
	if _, ok := b.Cut(now); ok {
		t.Fatal("cut from an empty batcher")
	}
	fill(b, 3)
	cut, ok := b.Cut(now)
	if !ok {
		t.Fatal("no cut despite queued requests and no linger bound")
	}
	if len(cut.Reqs) != 3 || cut.Reason != CutFlush {
		t.Fatalf("got %d reqs reason %v, want 3 reqs flush", len(cut.Reqs), cut.Reason)
	}
	if b.Len() != 0 || b.PendingBytes() != 0 {
		t.Fatalf("queue not drained: len=%d bytes=%d", b.Len(), b.PendingBytes())
	}
	// Trace refs ride along in arrival order.
	for i, ref := range cut.Refs {
		if ref.Trace != uint64(i+1) {
			t.Fatalf("ref %d has trace %d", i, ref.Trace)
		}
	}
}

func TestCountCutCapsBatch(t *testing.T) {
	b := New(Config{MaxCount: 4})
	fill(b, 10)
	cut, ok := b.Cut(time.Now())
	if !ok || len(cut.Reqs) != 4 || cut.Reason != CutCount {
		t.Fatalf("got ok=%v len=%d reason=%v, want 4-request count cut", ok, len(cut.Reqs), cut.Reason)
	}
	if b.Len() != 6 {
		t.Fatalf("queue has %d left, want 6", b.Len())
	}
	// Requests come out in arrival order across cuts.
	cut2, _ := b.Cut(time.Now())
	if cut.Reqs[0].ReqID != 0 || cut2.Reqs[0].ReqID != 4 {
		t.Fatalf("cuts out of order: %d then %d", cut.Reqs[0].ReqID, cut2.Reqs[0].ReqID)
	}
}

func TestLingerDefersAndForcesCut(t *testing.T) {
	b := New(Config{MaxCount: 8, MaxLinger: time.Hour})
	fill(b, 3)
	now := time.Now()
	if b.Ready(now) {
		t.Fatal("ready before linger deadline with queue below target")
	}
	dl, ok := b.NextDeadline()
	if !ok {
		t.Fatal("no linger deadline for a non-empty queue")
	}
	if _, ok := b.Cut(dl.Add(time.Nanosecond)); !ok {
		t.Fatal("no cut after the linger deadline")
	}
	b2 := New(Config{MaxCount: 8, MaxLinger: time.Hour})
	fill(b2, 3)
	cut, ok := b2.Cut(time.Now().Add(2 * time.Hour))
	if !ok || cut.Reason != CutLinger {
		t.Fatalf("got ok=%v reason=%v, want linger cut", ok, cut.Reason)
	}
}

func TestBytesCut(t *testing.T) {
	b := New(Config{MaxCount: 100, MaxBytes: 128, MaxLinger: time.Hour})
	big := &replication.Request{Client: 10001, ReqID: 1, Op: make([]byte, 40), Auth: []byte("m")}
	b.Put(big, tracing.Ref{})
	if b.Ready(time.Now()) {
		t.Fatal("ready below the byte cap")
	}
	b.Put(&replication.Request{Client: 10002, ReqID: 2, Op: make([]byte, 40), Auth: []byte("m")}, tracing.Ref{})
	cut, ok := b.Cut(time.Now())
	if !ok || cut.Reason != CutBytes {
		t.Fatalf("got ok=%v reason=%v, want bytes cut", ok, cut.Reason)
	}
	// The second request would push the payload past MaxBytes, so it
	// stays queued — but a single oversized request still ships alone.
	if len(cut.Reqs) != 1 || b.Len() != 1 {
		t.Fatalf("cut %d kept %d, want 1 and 1", len(cut.Reqs), b.Len())
	}
	huge := &replication.Request{Client: 10003, ReqID: 3, Op: make([]byte, 500), Auth: nil}
	b3 := New(Config{MaxCount: 8, MaxBytes: 128})
	b3.Put(huge, tracing.Ref{})
	if cut, ok := b3.Cut(time.Now()); !ok || len(cut.Reqs) != 1 {
		t.Fatal("oversized request did not ship alone")
	}
}

func TestFlushCutsRegardlessOfPolicy(t *testing.T) {
	b := New(Config{MaxCount: 8, MaxLinger: time.Hour})
	now := time.Now()
	if _, ok := b.Flush(now); ok {
		t.Fatal("flush of an empty batcher produced a batch")
	}
	fill(b, 2)
	cut, ok := b.Flush(now)
	if !ok || len(cut.Reqs) != 2 || cut.Reason != CutFlush {
		t.Fatalf("got ok=%v len=%d reason=%v, want forced 2-request flush", ok, len(cut.Reqs), cut.Reason)
	}
}

// The adaptive target tracks queue depth: after sustained deep queues it
// grows toward MaxCount, and it decays back so a lone request on an
// idle batcher cuts immediately instead of waiting out the linger.
func TestAdaptiveTargetTracksDepth(t *testing.T) {
	b := New(Config{MaxCount: 16, MaxLinger: time.Hour, Adaptive: true})
	now := time.Now()

	// Idle system: the first request meets the minimum target of 1.
	b.Put(req(0), tracing.Ref{})
	if !b.Ready(now) {
		t.Fatal("single request on an idle batcher should cut immediately")
	}
	b.Cut(now)

	// Sustained burst: depth EWMA climbs, so small batches stop cutting.
	fill(b, 16)
	b.Cut(now)
	fill(b, 16)
	b.Cut(now)
	if got := b.target(); got < 8 {
		t.Fatalf("target %d after sustained depth-16 bursts, want >= 8", got)
	}
	b.Put(req(99), tracing.Ref{})
	if b.Ready(now) {
		t.Fatal("one queued request should defer while the target is high")
	}
	b.Flush(now)
	// Load stops: repeated single arrivals decay the EWMA back to 1.
	for i := 0; i < 100; i++ {
		b.Put(req(100+i), tracing.Ref{})
		b.Flush(now)
	}
	if got := b.target(); got != 1 {
		t.Fatalf("target %d after load stopped, want 1", got)
	}
}

func TestFilterDropsAndKeepsAccounting(t *testing.T) {
	b := New(Config{MaxCount: 8})
	fill(b, 5)
	before := b.PendingBytes()
	b.Filter(func(r *replication.Request) bool { return r.ReqID%2 == 0 })
	if b.Len() != 3 {
		t.Fatalf("filter kept %d, want 3", b.Len())
	}
	if b.PendingBytes() >= before {
		t.Fatal("filter did not release byte accounting")
	}
	cut, _ := b.Cut(time.Now())
	for i, r := range cut.Reqs {
		if r.ReqID%2 != 0 {
			t.Fatalf("dropped request survived at %d: %d", i, r.ReqID)
		}
		if cut.Refs[i].Trace != r.ReqID+1 {
			t.Fatalf("ref misaligned after filter: req %d has trace %d", r.ReqID, cut.Refs[i].Trace)
		}
	}
}

func TestMetricsRecordCutsAndSizes(t *testing.T) {
	reg := metrics.NewRegistry()
	b := NewMetered(Config{MaxCount: 4, MaxLinger: time.Hour}, reg)
	now := time.Now()
	fill(b, 4)
	b.Cut(now) // count
	fill(b, 1)
	b.Cut(now.Add(2 * time.Hour)) // linger
	fill(b, 2)
	b.Flush(now) // flush
	if got := reg.Counter("proto_batch_cut_count_total").Load(); got != 1 {
		t.Fatalf("count cuts = %d, want 1", got)
	}
	if got := reg.Counter("proto_batch_cut_linger_total").Load(); got != 1 {
		t.Fatalf("linger cuts = %d, want 1", got)
	}
	if got := reg.Counter("proto_batch_cut_flush_total").Load(); got != 1 {
		t.Fatalf("flush cuts = %d, want 1", got)
	}
	snap := reg.Histogram("proto_batch_size").Snapshot()
	if snap.Count != 3 {
		t.Fatalf("batch size histogram has %d observations, want 3", snap.Count)
	}
	if got := reg.Gauge("proto_batch_queue_depth").Load(); got != 0 {
		t.Fatalf("queue depth gauge = %d after drain, want 0", got)
	}
}

// A batcher with a nil registry must not touch metrics at all.
func TestNilMetricsSafe(t *testing.T) {
	b := New(Config{})
	fill(b, 3)
	b.Cut(time.Now())
	b.Filter(func(*replication.Request) bool { return false })
}
