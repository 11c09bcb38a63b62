// Package zyzzyva implements Zyzzyva (Kotla et al., SOSP '07), the
// speculative BFT baseline of the paper's evaluation. The primary orders
// requests and replicas execute speculatively, responding directly to the
// client: a request completes in three message delays when the client
// receives 3f+1 matching speculative responses. With fewer (but at least
// 2f+1) matching responses the client falls back to the slow path,
// distributing a commit certificate — which is exactly why a single
// non-responding replica (Zyzzyva-F in Fig 7) collapses throughput.
//
// The view-change and fill-hole sub-protocols are out of scope (as in
// the paper's comparison, which exercises the fault-free fast path and
// the faulty-replica slow path).
package zyzzyva

import (
	"sync"
	"time"

	"neobft/internal/batch"
	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Flight-recorder event kind for slow-path commit certificates.
var tkZyzSlowPath = metrics.RegisterTraceKind("zyzzyva_slow_path") // a=seq

// Message kinds.
const (
	kindOrderReq uint8 = replication.KindProtocolBase + iota
	kindSpecResponse
	kindCommit
	kindLocalCommit
	kindCheckpoint
	kindStateFetch
	kindStateSnap
)

// ckptDomain separates Zyzzyva checkpoint authenticators from other
// protocols sharing the seqlog wire helpers.
const ckptDomain = "zyz-ckpt"

// Config configures a Zyzzyva replica.
type Config struct {
	Self, N, F int
	Members    []transport.NodeID
	Conn       transport.Conn
	Auth       auth.Authenticator
	ClientAuth *auth.ReplicaSide
	App        replication.App
	// BatchSize caps requests per order-req (default 8).
	BatchSize int
	// BatchBytes caps the marshaled request payload per order-req
	// (default batch.DefaultMaxBytes).
	BatchBytes int
	// BatchLinger lets the primary defer a below-target batch for up to
	// this long. Zero preserves the cut-immediately behavior.
	BatchLinger time.Duration
	// BatchAdaptive scales the batch-size target with queue depth (see
	// batch.Config.Adaptive). Requires BatchLinger > 0.
	BatchAdaptive bool
	// Window caps outstanding speculative batches (default 2).
	Window int
	// CheckpointInterval is the number of batches between checkpoints
	// (default 128). Stable checkpoints truncate the ordered-batch log
	// and bound the out-of-order buffer.
	CheckpointInterval int
	// Silent makes the replica drop all protocol traffic (the
	// non-responding Byzantine replica of the Zyzzyva-F experiment).
	Silent bool
	// Runtime hosts the replica's event loop and verification workers.
	// If nil, New creates a default runtime over Conn.
	Runtime *runtime.Runtime
	// Metrics is the replica's shared registry (runtime stages plus
	// proto_* series). If nil, the runtime's registry is used.
	Metrics *metrics.Registry
	// Restore, if non-nil, boots the replica from a Persist() blob: the
	// stable checkpoint certificate, history hash and snapshot captured
	// before a crash.
	Restore []byte
}

// Replica is a Zyzzyva replica.
type Replica struct {
	cfg  Config
	conn transport.Conn
	rt   *runtime.Runtime

	mu       sync.Mutex
	view     uint64
	seq      uint64 // primary: last assigned
	lastExec uint64
	history  [32]byte
	// batcher queues client requests at the primary and cuts order-req
	// batches per the shared hybrid policy.
	batcher  *batch.Batcher
	inQueue  map[string]bool
	buffered map[uint64]*orderReq // out-of-order order-reqs, horizon-bounded
	table    *replication.ClientTable
	// maxCC is the highest sequence covered by a commit certificate.
	maxCC uint64

	// log retains executed batches in the live watermark window; stable
	// checkpoints (2f+1 votes binding history and state) truncate it and
	// the buffered entries below the new low watermark.
	log  seqlog.Log[*orderReq]
	ckpt *seqlog.Checkpointer

	executedOps uint64

	// metrics (nil-safe no-ops when unconfigured)
	reg         *metrics.Registry
	mCommits    *metrics.Counter
	mSlowPath   *metrics.Counter
	mAuthFail   *metrics.Counter
	mHorizonRej *metrics.Counter
	gLow        *metrics.Gauge
	gHigh       *metrics.Gauge
	msgCounters map[uint8]*metrics.Counter
	trace       *metrics.Recorder
}

var zyzKindNames = map[uint8]string{
	kindOrderReq: "order_req", kindSpecResponse: "spec_response",
	kindCommit: "commit", kindLocalCommit: "local_commit",
	kindCheckpoint: "checkpoint", kindStateFetch: "state_fetch",
	kindStateSnap: "state_snapshot",
}

type orderReq struct {
	view    uint64
	seq     uint64
	digest  [32]byte
	history [32]byte
	batch   []*replication.Request
	// authOK holds per-request client-MAC verdicts precomputed by the
	// verification stage; nil means verify inline (the primary's own
	// batches take that path).
	authOK []bool
}

// New creates and starts a Zyzzyva replica.
func New(cfg Config) *Replica {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 8
	}
	if cfg.Window == 0 {
		cfg.Window = 2
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 128
	}
	if cfg.Runtime == nil {
		cfg.Runtime = runtime.New(runtime.Config{Conn: cfg.Conn, Metrics: cfg.Metrics})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Runtime.Metrics()
	}
	r := &Replica{
		cfg:      cfg,
		conn:     cfg.Conn,
		rt:       cfg.Runtime,
		inQueue:  map[string]bool{},
		buffered: map[uint64]*orderReq{},
		table:    replication.NewClientTable(),
		ckpt: seqlog.NewCheckpointer(seqlog.CheckpointConfig{
			Domain: ckptDomain, Self: cfg.Self, N: cfg.N, Quorum: 2*cfg.F + 1, Extra: 1,
			Auth: cfg.Auth, Metrics: cfg.Metrics,
		}),
	}
	reg := cfg.Metrics
	r.reg = reg
	r.mCommits = reg.Counter("proto_commits_total")
	r.mSlowPath = reg.Counter("proto_slow_path_total")
	r.mAuthFail = reg.Counter("proto_auth_fail_total")
	r.mHorizonRej = reg.Counter("proto_sync_horizon_rejects_total")
	r.gLow = reg.Gauge("proto_log_low_watermark")
	r.gHigh = reg.Gauge("proto_log_high_watermark")
	r.msgCounters = make(map[uint8]*metrics.Counter, len(zyzKindNames)+1)
	r.msgCounters[replication.KindRequest] = reg.Counter("proto_msg_client_request_total")
	for k, name := range zyzKindNames {
		r.msgCounters[k] = reg.Counter("proto_msg_" + name + "_total")
	}
	r.trace = reg.Recorder()
	r.batcher = batch.New(batch.Config{
		MaxCount:  cfg.BatchSize,
		MaxBytes:  cfg.BatchBytes,
		MaxLinger: cfg.BatchLinger,
		Adaptive:  cfg.BatchAdaptive,
		Metrics:   reg,
	})
	if cp := r.ckpt.Read(wire.NewReader(cfg.Restore)); cp != nil {
		r.mu.Lock()
		r.installLocked(cp)
		r.mu.Unlock()
	}
	if cfg.BatchLinger > 0 {
		r.rt.ArmEvery(flushPollInterval(cfg.BatchLinger), r.onBatchPoll)
	}
	r.rt.Start(r)
	return r
}

// Metrics returns the replica's shared metrics registry.
func (r *Replica) Metrics() *metrics.Registry { return r.reg }

// Close stops the replica's runtime.
func (r *Replica) Close() { r.rt.Close() }

// Runtime returns the replica's runtime (for stats and draining).
func (r *Replica) Runtime() *runtime.Runtime { return r.rt }

// Executed returns the number of executed client operations.
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executedOps
}

// LowWatermark returns the log's low watermark (last stable checkpoint).
func (r *Replica) LowWatermark() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Low()
}

// HighWatermark returns the highest retained log slot.
func (r *Replica) HighWatermark() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.High()
}

// SnapshotInstalls returns how many snapshot state transfers this
// replica has installed.
func (r *Replica) SnapshotInstalls() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckpt.Installs()
}

func (r *Replica) primary() int    { return int(r.view) % r.cfg.N }
func (r *Replica) isPrimary() bool { return r.primary() == r.cfg.Self }

// horizonLocked is the highest sequence number this replica will buffer
// or count checkpoint votes for: two checkpoint intervals above the last
// stable checkpoint, mirroring PBFT's high watermark H = h + 2K. Caller
// holds r.mu.
func (r *Replica) horizonLocked() uint64 {
	return r.log.Low() + 2*uint64(r.cfg.CheckpointInterval)
}

func (r *Replica) broadcast(pkt []byte) {
	for i, m := range r.cfg.Members {
		if i == r.cfg.Self {
			continue
		}
		r.conn.Send(m, pkt)
	}
}

func orderBody(view, seq uint64, digest, history [32]byte) []byte {
	w := wire.NewWriter(96)
	w.Raw([]byte("zyz-order"))
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	w.Bytes32(history)
	return w.Bytes()
}

// specBody is the group-verifiable part of a speculative response; 2f+1
// matching authenticators over it form a commit certificate.
func specBody(view, seq uint64, history, digest [32]byte, replica uint32) []byte {
	w := wire.NewWriter(96)
	w.Raw([]byte("zyz-spec"))
	w.U64(view)
	w.U64(seq)
	w.Bytes32(history)
	w.Bytes32(digest)
	w.U32(replica)
	return w.Bytes()
}

func batchDigest(batch []*replication.Request) [32]byte {
	var acc [32]byte
	for _, req := range batch {
		acc = replication.ChainHash(acc, replication.RequestDigest(req))
	}
	return acc
}

func reqKey(c transport.NodeID, id uint64) string {
	w := wire.NewWriter(12)
	w.U32(uint32(c))
	w.U64(id)
	return string(w.Bytes())
}

// --- verify stage (worker goroutines) --------------------------------------

type evRequest struct{ req *replication.Request }

type evOrderReq struct{ o *orderReq }

type evCommit struct {
	view, seq       uint64
	history, digest [32]byte
	valid           int
}

type evStateFetch struct{ haveExec uint64 }

type evStateSnap struct{ body []byte }

// VerifyPacket implements runtime.Handler: packet decoding, client MACs,
// the primary's order-req authenticator, per-request client MACs in the
// batch, and commit-certificate parts are all checked off the loop.
func (r *Replica) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if r.cfg.Silent || len(pkt) == 0 {
		return nil
	}
	r.msgCounters[pkt[0]].Inc()
	switch pkt[0] {
	case replication.KindRequest:
		req, err := replication.UnmarshalRequest(pkt[1:])
		if err != nil {
			return nil
		}
		if !r.cfg.ClientAuth.VerifyClient(int64(req.Client), req.SignedBody(), req.Auth) {
			r.mAuthFail.Inc()
			return nil
		}
		return evRequest{req: req}
	case kindOrderReq:
		o := r.verifyOrderReq(pkt[1:])
		if o == nil {
			return nil
		}
		return evOrderReq{o: o}
	case kindCommit:
		return r.verifyCommit(pkt[1:])
	case kindCheckpoint:
		rd := wire.NewReader(pkt[1:])
		v, ok := r.ckpt.ReadVote(rd)
		if !ok || rd.Done() != nil {
			return nil
		}
		if !r.ckpt.VerifyVote(v) {
			r.mAuthFail.Inc()
			return nil
		}
		return v
	case kindStateFetch:
		rd := wire.NewReader(pkt[1:])
		have := rd.U64()
		if rd.Done() != nil {
			return nil
		}
		return evStateFetch{haveExec: have}
	case kindStateSnap:
		return evStateSnap{body: append([]byte(nil), pkt[1:]...)}
	}
	return nil
}

// verifyOrderReq decodes and authenticates an order-req against the
// *claimed* view's primary; apply rejects stale views.
func (r *Replica) verifyOrderReq(pkt []byte) *orderReq {
	rd := wire.NewReader(pkt)
	body := rd.VarBytes()
	tag := rd.VarBytes()
	reqs, ok := batch.Unmarshal(rd)
	if !ok || rd.Done() != nil {
		return nil
	}
	br := wire.NewReader(body)
	if !br.Prefix("zyz-order") {
		return nil
	}
	view := br.U64()
	seq := br.U64()
	digest := br.Bytes32()
	history := br.Bytes32()
	if br.Done() != nil {
		return nil
	}
	if !r.cfg.Auth.VerifyVector(int(view)%r.cfg.N, body, tag) {
		r.mAuthFail.Inc()
		return nil
	}
	if batchDigest(reqs) != digest {
		return nil
	}
	authOK := make([]bool, len(reqs))
	for i, req := range reqs {
		authOK[i] = r.cfg.ClientAuth.VerifyClient(int64(req.Client), req.SignedBody(), req.Auth)
		if !authOK[i] {
			r.mAuthFail.Inc()
		}
	}
	return &orderReq{view: view, seq: seq, digest: digest, history: history, batch: reqs, authOK: authOK}
}

// verifyCommit counts valid commit-certificate parts; the certificate
// inputs are all carried in the packet, so this is loop-state-free.
func (r *Replica) verifyCommit(pkt []byte) runtime.Event {
	rd := wire.NewReader(pkt)
	view := rd.U64()
	seq := rd.U64()
	history := rd.Bytes32()
	digest := rd.Bytes32()
	np := rd.U32()
	if rd.Err() != nil || np > uint32(r.cfg.N) {
		return nil
	}
	type pt struct {
		rep uint32
		tag []byte
	}
	parts := make([]pt, np)
	for i := range parts {
		parts[i].rep = rd.U32()
		parts[i].tag = rd.VarBytes()
	}
	if rd.Done() != nil {
		return nil
	}
	seen := map[uint32]bool{}
	valid := 0
	for _, p := range parts {
		if int(p.rep) >= r.cfg.N || seen[p.rep] {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(p.rep), specBody(view, seq, history, digest, p.rep), p.tag) {
			continue
		}
		seen[p.rep] = true
		valid++
	}
	return evCommit{view: view, seq: seq, history: history, digest: digest, valid: valid}
}

// ApplyEvent implements runtime.Handler.
func (r *Replica) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	switch e := ev.(type) {
	case evRequest:
		r.onRequest(e.req)
	case evOrderReq:
		r.onOrderReq(e.o)
	case evCommit:
		r.onCommit(from, e)
	case seqlog.Vote:
		r.onCheckpoint(e)
	case evStateFetch:
		r.onStateFetch(from, e.haveExec)
	case evStateSnap:
		r.onStateSnap(e.body)
	}
}

// --- apply stage (loop goroutine) ------------------------------------------

func (r *Replica) onRequest(req *replication.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh, cached := r.table.Check(req.Client, req.ReqID)
	if !fresh {
		if cached != nil {
			r.conn.Send(req.Client, cached.Marshal())
		}
		return
	}
	if !r.isPrimary() {
		// Forward to the primary (client retransmissions broadcast).
		r.conn.Send(r.cfg.Members[r.primary()], req.Marshal())
		return
	}
	key := reqKey(req.Client, req.ReqID)
	if !r.inQueue[key] {
		r.inQueue[key] = true
		r.batcher.Put(req, r.rt.Tracer().ActiveRef())
	}
	r.tryIssueLocked()
}

// flushPollInterval picks how often to poll a lingering batcher: half
// the linger bound, floored at 500µs so tiny lingers do not spin the
// loop.
func flushPollInterval(linger time.Duration) time.Duration {
	d := linger / 2
	if d < 500*time.Microsecond {
		d = 500 * time.Microsecond
	}
	return d
}

// onBatchPoll runs on the runtime loop when a linger bound is set: it
// cuts batches whose oldest request has waited out the linger even if
// no new request arrives to trigger tryIssueLocked.
func (r *Replica) onBatchPoll() {
	r.mu.Lock()
	r.tryIssueLocked()
	r.mu.Unlock()
}

func (r *Replica) tryIssueLocked() {
	if !r.isPrimary() {
		return
	}
	now := time.Now()
	for r.batcher.Ready(now) && r.seq-r.lastExec < uint64(r.cfg.Window) {
		cut, _ := r.batcher.Cut(now)
		r.seq++
		cut.EndOrder(r.rt.Tracer(), r.seq)
		digest := batchDigest(cut.Reqs)
		history := replication.ChainHash(r.history, digest)

		body := orderBody(r.view, r.seq, digest, history)
		w := wire.NewWriter(512)
		w.U8(kindOrderReq)
		w.VarBytes(body)
		w.VarBytes(r.cfg.Auth.TagVector(body))
		batch.MarshalInto(w, cut.Reqs)
		r.broadcast(w.Bytes())
		// The primary executes speculatively too.
		r.executeLocked(&orderReq{view: r.view, seq: r.seq, digest: digest, history: history, batch: cut.Reqs})
	}
}

func (r *Replica) onOrderReq(o *orderReq) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o.view != r.view || r.isPrimary() {
		return
	}
	if o.seq != r.lastExec+1 {
		if o.seq > r.horizonLocked() {
			// The primary is ordering beyond our watermark window: we are
			// too far behind to catch up by buffering (the group will have
			// truncated these slots' predecessors). Drop the batch and
			// fetch the stable snapshot instead.
			r.mHorizonRej.Inc()
			if r.ckpt.FetchDue() {
				r.sendStateFetchLocked(r.primary())
			}
			return
		}
		if o.seq > r.lastExec {
			r.buffered[o.seq] = o
		}
		return
	}
	r.executeLocked(o)
	for {
		next, ok := r.buffered[r.lastExec+1]
		if !ok {
			break
		}
		delete(r.buffered, next.seq)
		r.executeLocked(next)
	}
}

// executeLocked speculatively executes a batch in order and sends
// speculative responses straight to the clients. Caller holds r.mu.
func (r *Replica) executeLocked(o *orderReq) {
	// Verify the primary extended the history correctly.
	want := replication.ChainHash(r.history, o.digest)
	if o.history != want {
		return
	}
	r.history = o.history
	r.lastExec = o.seq
	r.log.Append(o)
	r.gHigh.Set(int64(r.log.High()))
	groupTag := r.cfg.Auth.TagVector(specBody(o.view, o.seq, o.history, o.digest, uint32(r.cfg.Self)))
	for i, req := range o.batch {
		// Pre-verified by the worker stage for backup batches; the
		// primary checks its own (already once-verified) batch inline.
		authOK := o.authOK != nil && o.authOK[i]
		if o.authOK == nil {
			authOK = r.cfg.ClientAuth.VerifyClient(int64(req.Client), req.SignedBody(), req.Auth)
		}
		if !authOK {
			continue
		}
		fresh, cached := r.table.Check(req.Client, req.ReqID)
		if !fresh {
			if cached != nil {
				r.conn.Send(req.Client, cached.Marshal())
			}
			continue
		}
		result, _ := r.cfg.App.Execute(req.Op)
		r.executedOps++
		r.mCommits.Inc()
		rep := &replication.Reply{
			View: o.view, Replica: uint32(r.cfg.Self), Slot: o.seq,
			LogHash: o.history, ReqID: req.ReqID, Result: result, Speculative: true,
		}
		rep.Auth = r.cfg.ClientAuth.TagFor(int64(req.Client), rep.SignedBody())
		r.table.Store(req.Client, req.ReqID, rep)

		w := wire.NewWriter(256)
		w.U8(kindSpecResponse)
		w.VarBytes(rep.Marshal()[1:]) // the reply, envelope stripped
		w.Bytes32(o.digest)
		w.VarBytes(groupTag)
		r.conn.Send(req.Client, w.Bytes())
	}
	delete(r.buffered, o.seq)
	if o.seq%uint64(r.cfg.CheckpointInterval) == 0 {
		r.captureCheckpointLocked(o.seq)
	}
	r.tryIssueLocked()
}

// onCommit processes a client's commit certificate: 2f+1 matching
// speculative-response authenticators (§2.1; slow path). The parts were
// counted by the verification stage.
func (r *Replica) onCommit(from transport.NodeID, e evCommit) {
	if e.valid < 2*r.cfg.F+1 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.seq > r.maxCC {
		r.maxCC = e.seq
		r.mSlowPath.Inc()
		r.trace.Record(tkZyzSlowPath, e.seq, 0)
	}
	// LOCAL-COMMIT back to the client.
	w := wire.NewWriter(64)
	w.U8(kindLocalCommit)
	w.U64(e.view)
	w.U64(e.seq)
	w.U32(uint32(r.cfg.Self))
	body := w.Bytes()
	mac := r.cfg.ClientAuth.TagFor(int64(from), body)
	out := wire.NewWriter(len(body) + 16)
	out.Raw(body)
	out.VarBytes(mac)
	r.conn.Send(from, out.Bytes())
}
