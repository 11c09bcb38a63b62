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
	"time"

	"neobft/internal/batch"
	"neobft/internal/metrics"
	"neobft/internal/replica"
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

// window caps outstanding speculative batches.
const window = 2

// Config configures a Zyzzyva replica. CheckpointInterval is the number
// of batches between checkpoints (default 128); stable checkpoints
// truncate the ordered-batch log and bound the out-of-order buffer.
// Restore boots from a Persist() blob: the stable checkpoint certificate,
// history hash and snapshot.
type Config struct {
	replica.Config
	// Batch configures the primary's batcher (batch defaults when zero).
	Batch batch.Config
	// Silent makes the replica drop all protocol traffic (the
	// non-responding Byzantine replica of the Zyzzyva-F experiment).
	Silent bool
}

// Replica is a Zyzzyva replica.
type Replica struct {
	*replica.Core
	cfg Config

	view     uint64
	seq      uint64 // primary: last assigned
	lastExec uint64
	history  [32]byte
	// queue holds client requests at the primary and cuts order-req
	// batches per the shared hybrid policy.
	queue    *replica.Queue
	buffered map[uint64]*orderReq // out-of-order order-reqs, horizon-bounded
	// maxCC is the highest sequence covered by a commit certificate.
	maxCC uint64

	// log retains executed batches in the live watermark window; stable
	// checkpoints (2f+1 votes binding history and state) truncate it and
	// the buffered entries below the new low watermark.
	log  seqlog.Log[*orderReq]
	ckpt *seqlog.Checkpointer

	// metrics (nil-safe no-ops when unconfigured)
	mSlowPath   *metrics.Counter
	mHorizonRej *metrics.Counter
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
	core := replica.NewCore(&cfg.Config, 128, zyzKindNames)
	reg := cfg.Metrics
	r := &Replica{
		Core:     core,
		cfg:      cfg,
		buffered: map[uint64]*orderReq{},
		ckpt: seqlog.NewCheckpointer(seqlog.CheckpointConfig{
			Domain: ckptDomain, Self: cfg.Self, N: cfg.N, Quorum: 2*cfg.F + 1, Extra: 1,
			Auth: cfg.Auth, Metrics: reg,
		}),
		mSlowPath:   reg.Counter("proto_slow_path_total"),
		mHorizonRej: reg.Counter("proto_sync_horizon_rejects_total"),
	}
	r.queue = core.NewQueue(cfg.Batch, r.tryIssue)
	if cp := r.ckpt.Read(wire.NewReader(cfg.Restore)); cp != nil {
		r.install(cp)
	}
	r.Runtime().Start(r)
	return r
}

// LowWatermark returns the log's low watermark (last stable checkpoint).
func (r *Replica) LowWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.Low() })
}

// HighWatermark returns the highest retained log slot.
func (r *Replica) HighWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.High() })
}

// SnapshotInstalls returns how many snapshot state transfers this
// replica has installed.
func (r *Replica) SnapshotInstalls() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.ckpt.Installs() })
}

func (r *Replica) primary() int    { return int(r.view) % r.cfg.N }
func (r *Replica) isPrimary() bool { return r.primary() == r.cfg.Self }

// horizon is the highest sequence number this replica will buffer
// or count checkpoint votes for: two checkpoint intervals above the last
// stable checkpoint, mirroring PBFT's high watermark H = h + 2K.
func (r *Replica) horizon() uint64 {
	return r.log.Low() + 2*uint64(r.cfg.CheckpointInterval)
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
	if r.cfg.Silent || !r.CountMsg(pkt) {
		return nil
	}
	switch pkt[0] {
	case replication.KindRequest:
		if req := r.VerifyRequest(pkt[1:]); req != nil {
			return evRequest{req: req}
		}
		return nil
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
			r.AuthFail.Inc()
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
		r.AuthFail.Inc()
		return nil
	}
	if batch.Digest(reqs) != digest {
		return nil
	}
	authOK := make([]bool, len(reqs))
	for i, req := range reqs {
		authOK[i] = r.VerifyClient(req)
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
	if !r.Admit(req) {
		return
	}
	if !r.isPrimary() {
		// Forward to the primary (client retransmissions broadcast).
		r.Send(r.cfg.Members[r.primary()], req.Marshal())
		return
	}
	r.queue.Add(req)
	r.tryIssue()
}

func (r *Replica) tryIssue() {
	if !r.isPrimary() {
		return
	}
	now := time.Now()
	for r.queue.Ready(now) && r.seq-r.lastExec < window {
		cut, _ := r.queue.Cut(now)
		r.seq++
		cut.EndOrder(r.Runtime().Tracer(), r.seq)
		digest := batch.Digest(cut.Reqs)
		history := replication.ChainHash(r.history, digest)

		body := orderBody(r.view, r.seq, digest, history)
		w := wire.NewWriter(512)
		w.U8(kindOrderReq)
		w.VarBytes(body)
		w.VarBytes(r.cfg.Auth.TagVector(body))
		batch.MarshalInto(w, cut.Reqs)
		r.Broadcast(w.Bytes())
		// The primary executes speculatively too.
		r.execute(&orderReq{view: r.view, seq: r.seq, digest: digest, history: history, batch: cut.Reqs})
	}
}

func (r *Replica) onOrderReq(o *orderReq) {
	if o.view != r.view || r.isPrimary() {
		return
	}
	if o.seq != r.lastExec+1 {
		if o.seq > r.horizon() {
			// The primary is ordering beyond our watermark window: we are
			// too far behind to catch up by buffering (the group will have
			// truncated these slots' predecessors). Drop the batch and
			// fetch the stable snapshot instead.
			r.mHorizonRej.Inc()
			if r.ckpt.FetchDue() {
				r.sendStateFetch(r.primary())
			}
			return
		}
		if o.seq > r.lastExec {
			r.buffered[o.seq] = o
		}
		return
	}
	r.execute(o)
	for {
		next, ok := r.buffered[r.lastExec+1]
		if !ok {
			break
		}
		delete(r.buffered, next.seq)
		r.execute(next)
	}
}

// execute speculatively executes a batch in order and sends
// speculative responses straight to the clients.
func (r *Replica) execute(o *orderReq) {
	// Verify the primary extended the history correctly.
	want := replication.ChainHash(r.history, o.digest)
	if o.history != want {
		return
	}
	r.history = o.history
	r.lastExec = o.seq
	r.log.Append(o)
	r.SetWindow(r.log.Low(), r.log.High())
	groupTag := r.cfg.Auth.TagVector(specBody(o.view, o.seq, o.history, o.digest, uint32(r.cfg.Self)))
	for i, req := range o.batch {
		// Pre-verified by the worker stage for backup batches; the
		// primary checks its own (already once-verified) batch inline.
		authOK := o.authOK != nil && o.authOK[i]
		if o.authOK == nil {
			authOK = r.VerifyClient(req)
		}
		if !authOK {
			continue
		}
		rep, _ := r.Execute(req, replication.Reply{View: o.view, Slot: o.seq, LogHash: o.history, Speculative: true})
		if rep == nil {
			continue
		}
		r.queue.Done(req)
		w := wire.NewWriter(256)
		w.U8(kindSpecResponse)
		w.VarBytes(rep.Marshal()[1:]) // the reply, envelope stripped
		w.Bytes32(o.digest)
		w.VarBytes(groupTag)
		r.Send(req.Client, w.Bytes())
	}
	delete(r.buffered, o.seq)
	if o.seq%uint64(r.cfg.CheckpointInterval) == 0 {
		r.captureCheckpoint(o.seq)
	}
	r.tryIssue()
}

// onCommit processes a client's commit certificate: 2f+1 matching
// speculative-response authenticators (§2.1; slow path). The parts were
// counted by the verification stage.
func (r *Replica) onCommit(from transport.NodeID, e evCommit) {
	if e.valid < 2*r.cfg.F+1 {
		return
	}
	if e.seq > r.maxCC {
		r.maxCC = e.seq
		r.mSlowPath.Inc()
		r.Trace().Record(tkZyzSlowPath, e.seq, 0)
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
	r.Send(from, out.Bytes())
}
