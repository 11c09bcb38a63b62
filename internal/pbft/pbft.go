// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI '99), the classical baseline of the paper's evaluation.
// The normal case is the three-phase pre-prepare / prepare / commit
// protocol with MAC-vector authenticators and request batching at the
// primary; primary failure is handled by the standard view-change /
// new-view protocol. Clients accept a result after f+1 matching replies.
package pbft

import (
	"crypto/sha256"
	"time"

	"neobft/internal/batch"
	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Flight-recorder event kind for completed view changes.
var tkPBFTViewChange = metrics.RegisterTraceKind("pbft_view_change") // a=view

// Message kinds.
const (
	kindPrePrepare uint8 = replication.KindProtocolBase + iota
	kindPrepare
	kindCommit
	kindViewChange
	kindNewView
	kindForward
	kindCheckpoint
	kindStateFetch
	kindStateSnap
)

// ckptDomain separates PBFT checkpoint authenticators from other
// protocols sharing the seqlog checkpoint wire format.
const ckptDomain = "pbft-ckpt"

// window caps outstanding (uncommitted) batches. A small window is what
// makes batching effective: requests arriving while the window is full
// accumulate into the next batch.
const window = 2

// Config configures a PBFT replica. CheckpointInterval defaults to 128
// sequence numbers. Restore boots from a Persist() blob (the stable
// checkpoint certificate plus snapshot); the replica catches up on later
// slots through the normal protocol.
type Config struct {
	replica.Config
	// Batch configures the primary's batcher (batch defaults when zero).
	Batch batch.Config
	// RequestTimeout triggers primary suspicion for unexecuted client
	// requests.
	RequestTimeout time.Duration
	// ViewChangeTimeout bounds a view-change attempt.
	ViewChangeTimeout time.Duration
	// TickInterval drives timers. Default 10ms.
	TickInterval time.Duration
}

type slot struct {
	view     uint64
	digest   [32]byte
	batch    []*replication.Request
	prepares map[uint32][]byte
	commits  map[uint32][]byte
	prepared bool
	// prepareProof retains the 2f prepare tags for view changes.
	prepareProof []part
	committed    bool
	executed     bool
	sentCommit   bool
	// pp and ppSent are the primary's pre-prepare for the slot and when
	// it last went out, so a lost one can be sent again.
	pp     []byte
	ppSent time.Time
}

type part struct {
	Replica uint32
	Tag     []byte
}

// Replica is a PBFT replica.
type Replica struct {
	*replica.Core
	cfg Config

	view     uint64
	inVC     bool
	vcTarget uint64
	vcStart  time.Time
	vcMsgs   map[uint64]map[uint32]*vcMsg // target view → replica → msg

	seq uint64 // primary's next sequence number (last assigned)
	// log is the memory-bounded agreement window: slots keep their
	// absolute sequence numbers while everything at or below the stable
	// checkpoint (the low watermark) is truncated away.
	log      seqlog.Log[*slot]
	lastExec uint64
	// queue holds client requests at the primary (with their trace refs)
	// and cuts pre-prepare batches per the shared hybrid policy.
	queue *replica.Queue

	// ckpt runs checkpoints: 2f+1 matching votes over the snapshot
	// digest make one stable.
	ckpt *seqlog.Checkpointer

	pendingClientReqs map[replica.ReqKey]time.Time

	viewChanges uint64

	// metrics (nil-safe no-ops when unconfigured)
	mViewChg    *metrics.Counter
	mHorizonRej *metrics.Counter
}

var pbftKindNames = map[uint8]string{
	kindPrePrepare: "pre_prepare", kindPrepare: "prepare",
	kindCommit: "commit", kindViewChange: "view_change",
	kindNewView: "new_view", kindForward: "forward",
	kindCheckpoint: "checkpoint", kindStateFetch: "state_fetch",
	kindStateSnap: "state_snapshot",
}

// New creates and starts a PBFT replica.
func New(cfg Config) *Replica {
	core := replica.NewCore(&cfg.Config, 128, pbftKindNames)
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 300 * time.Millisecond
	}
	if cfg.ViewChangeTimeout == 0 {
		cfg.ViewChangeTimeout = 500 * time.Millisecond
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	reg := cfg.Metrics
	r := &Replica{
		Core: core,
		cfg:  cfg,
		ckpt: seqlog.NewCheckpointer(seqlog.CheckpointConfig{
			Domain: ckptDomain, Self: cfg.Self, N: cfg.N, Quorum: 2*cfg.F + 1,
			Auth: cfg.Auth, Metrics: reg,
		}),
		vcMsgs:            map[uint64]map[uint32]*vcMsg{},
		pendingClientReqs: map[replica.ReqKey]time.Time{},
		mViewChg:          reg.Counter("proto_view_changes_total"),
		mHorizonRej:       reg.Counter("proto_sync_horizon_rejects_total"),
	}
	r.queue = core.NewQueue(cfg.Batch, r.tryIssue)
	if cp := r.ckpt.Read(wire.NewReader(cfg.Restore)); cp != nil {
		r.install(cp)
	}
	r.Runtime().ArmEvery(cfg.TickInterval, r.onTick)
	r.Runtime().Start(r)
	return r
}

// View returns the current view number.
func (r *Replica) View() uint64 { return replica.Read(r.Core, func() uint64 { return r.view }) }

// ViewChanges returns how many view changes completed at this replica.
func (r *Replica) ViewChanges() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.viewChanges })
}

// LowWatermark returns the stable checkpoint sequence number below which
// the log has been truncated.
func (r *Replica) LowWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.Low() })
}

// HighWatermark returns the highest materialized slot.
func (r *Replica) HighWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.High() })
}

// SnapshotInstalls returns how many snapshot state transfers this
// replica has installed.
func (r *Replica) SnapshotInstalls() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.ckpt.Installs() })
}

// CheckpointVotes returns the number of slots with outstanding
// checkpoint votes (for Byzantine-bounding tests).
func (r *Replica) CheckpointVotes() int {
	return replica.Read(r.Core, func() int { return r.ckpt.Votes() })
}

func (r *Replica) primary() int    { return int(r.view) % r.cfg.N }
func (r *Replica) isPrimary() bool { return r.primary() == r.cfg.Self }
func (r *Replica) primaryNode() transport.NodeID {
	return r.cfg.Members[r.primary()]
}

// horizon is the high watermark of the agreement window: two
// checkpoint intervals above the stable checkpoint (PBFT's H = h + L).
// Slots beyond it are refused, which both implements the watermark rule
// and bounds the memory a Byzantine replica can pin with far-future
// votes.
func (r *Replica) horizon() uint64 {
	return r.log.Low() + 2*uint64(r.cfg.CheckpointInterval)
}

// slotFor returns the slot for seq, materializing the dense window up to
// it. Sequence numbers at or below the stable checkpoint (already
// truncated) or beyond the watermark window return nil; callers skip
// them.
func (r *Replica) slotFor(seq uint64) *slot {
	if seq == 0 || seq <= r.log.Low() {
		return nil
	}
	if seq > r.horizon() {
		r.mHorizonRej.Inc()
		return nil
	}
	for r.log.High() < seq {
		r.log.Append(&slot{prepares: map[uint32][]byte{}, commits: map[uint32][]byte{}})
	}
	r.SetWindow(r.log.Low(), r.log.High())
	s, _ := r.log.Get(seq)
	return s
}

// --- message bodies -------------------------------------------------------

func ppBody(view, seq uint64, digest [32]byte) []byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("pbft-pp"))
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	return w.Bytes()
}

func prepBody(view, seq uint64, digest [32]byte, replica uint32) []byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("pbft-prep"))
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	w.U32(replica)
	return w.Bytes()
}

func commitBody(view, seq uint64, digest [32]byte, replica uint32) []byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("pbft-commit"))
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	w.U32(replica)
	return w.Bytes()
}

func batchDigest(batch []*replication.Request) [32]byte {
	h := sha256.New()
	for _, req := range batch {
		d := replication.RequestDigest(req)
		h.Write(d[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// --- verify stage (worker goroutines) --------------------------------------
//
// VerifyPacket decodes and authenticates packets off the loop. Checks
// that depend on mutable state (current view, slot contents) stay in the
// apply stage; authenticator verification only needs the *claimed* view,
// since the verification key index is view % N and apply rejects packets
// whose claimed view is not current.

type evRequest struct {
	req       *replication.Request
	forwarded bool
}

type evPrePrepare struct {
	view, seq uint64
	digest    [32]byte
	batch     []*replication.Request
}

type evPrepare struct {
	replica   uint32
	view, seq uint64
	digest    [32]byte
	tag       []byte
}

type evCommit struct {
	replica   uint32
	view, seq uint64
	digest    [32]byte
	tag       []byte
}

type evViewChange struct{ body []byte }
type evNewView struct{ body []byte }

type evStateFetch struct{ haveExec uint64 }
type evStateSnap struct{ body []byte }

// VerifyPacket implements runtime.Handler. It runs on verification
// workers and must not touch loop-owned state.
func (r *Replica) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if !r.CountMsg(pkt) {
		return nil
	}
	switch pkt[0] {
	case replication.KindRequest, kindForward:
		if req := r.VerifyRequest(pkt[1:]); req != nil {
			return evRequest{req: req, forwarded: pkt[0] == kindForward}
		}
		return nil
	case kindPrePrepare:
		rd := wire.NewReader(pkt[1:])
		body := rd.VarBytes()
		tag := rd.VarBytes()
		reqs, ok := batch.Unmarshal(rd)
		if !ok || rd.Done() != nil {
			return nil
		}
		br := wire.NewReader(body)
		if !br.Prefix("pbft-pp") {
			return nil
		}
		view := br.U64()
		seq := br.U64()
		digest := br.Bytes32()
		if br.Done() != nil {
			return nil
		}
		if !r.cfg.Auth.VerifyVector(int(view)%r.cfg.N, body, tag) {
			r.AuthFail.Inc()
			return nil
		}
		if batchDigest(reqs) != digest {
			return nil
		}
		return evPrePrepare{view: view, seq: seq, digest: digest, batch: reqs}
	case kindPrepare:
		replica, view, seq, digest, tag, ok := decodeVote(pkt[1:])
		if !ok || int(replica) >= r.cfg.N {
			return nil
		}
		if !r.cfg.Auth.VerifyVector(int(replica), prepBody(view, seq, digest, replica), tag) {
			r.AuthFail.Inc()
			return nil
		}
		return evPrepare{replica: replica, view: view, seq: seq, digest: digest, tag: tag}
	case kindCommit:
		replica, view, seq, digest, tag, ok := decodeVote(pkt[1:])
		if !ok || int(replica) >= r.cfg.N {
			return nil
		}
		if !r.cfg.Auth.VerifyVector(int(replica), commitBody(view, seq, digest, replica), tag) {
			r.AuthFail.Inc()
			return nil
		}
		return evCommit{replica: replica, view: view, seq: seq, digest: digest, tag: tag}
	case kindViewChange:
		return evViewChange{body: append([]byte(nil), pkt[1:]...)}
	case kindNewView:
		return evNewView{body: append([]byte(nil), pkt[1:]...)}
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
		haveExec := rd.U64()
		if rd.Done() != nil {
			return nil
		}
		return evStateFetch{haveExec: haveExec}
	case kindStateSnap:
		return evStateSnap{body: append([]byte(nil), pkt[1:]...)}
	}
	return nil
}

// EncodePrepare builds a signed prepare packet exactly as a replica
// would broadcast it. Exported for benchmarks and tests that flood a
// replica's verification stage directly.
func EncodePrepare(a auth.Authenticator, replica uint32, view, seq uint64, digest [32]byte) []byte {
	tag := a.TagVector(prepBody(view, seq, digest, replica))
	w := wire.NewWriter(128)
	w.U8(kindPrepare)
	w.U32(replica)
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	w.VarBytes(tag)
	return w.Bytes()
}

// EncodeCommit builds a signed commit packet exactly as a replica would
// broadcast it. Exported for benchmarks and tests.
func EncodeCommit(a auth.Authenticator, replica uint32, view, seq uint64, digest [32]byte) []byte {
	tag := a.TagVector(commitBody(view, seq, digest, replica))
	w := wire.NewWriter(128)
	w.U8(kindCommit)
	w.U32(replica)
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	w.VarBytes(tag)
	return w.Bytes()
}

func decodeVote(pkt []byte) (replica uint32, view, seq uint64, digest [32]byte, tag []byte, ok bool) {
	rd := wire.NewReader(pkt)
	replica = rd.U32()
	view = rd.U64()
	seq = rd.U64()
	digest = rd.Bytes32()
	tag = rd.VarBytes()
	ok = rd.Done() == nil
	return
}

// ApplyEvent implements runtime.Handler: it runs pre-verified events on
// the loop goroutine.
func (r *Replica) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	switch e := ev.(type) {
	case evRequest:
		r.onRequest(e.req, e.forwarded)
	case evPrePrepare:
		r.onPrePrepare(e)
	case evPrepare:
		r.onPrepare(e)
	case evCommit:
		r.onCommit(e)
	case evViewChange:
		r.onViewChange(e.body)
	case evNewView:
		r.onNewView(e.body)
	case seqlog.Vote:
		r.onCheckpoint(e)
	case evStateFetch:
		r.onStateFetch(from, e.haveExec)
	case evStateSnap:
		r.onStateSnap(e.body)
	}
}

// --- apply stage (loop goroutine) ------------------------------------------

func (r *Replica) onRequest(req *replication.Request, forwarded bool) {
	if !r.Admit(req) {
		return
	}
	if r.isPrimary() {
		r.queue.Add(req)
		r.tryIssue()
		return
	}
	// Backup: forward to the primary and start the suspicion timer.
	if !forwarded {
		fw := append([]byte{kindForward}, req.Marshal()[1:]...)
		r.Send(r.primaryNode(), fw)
	}
	key := replica.KeyOf(req)
	if _, ok := r.pendingClientReqs[key]; !ok {
		r.pendingClientReqs[key] = time.Now()
	}
}

// tryIssue lets the primary cut batches while the window allows.
func (r *Replica) tryIssue() {
	if !r.isPrimary() || r.inVC {
		return
	}
	now := time.Now()
	outstanding := r.seq - r.lastExec
	for r.queue.Ready(now) && outstanding < window {
		s := r.slotFor(r.seq + 1)
		if s == nil {
			return // watermark window full: wait for the next stable checkpoint
		}
		cut, _ := r.queue.Cut(now)
		r.seq++
		seq := r.seq
		cut.EndOrder(r.Runtime().Tracer(), seq)
		s.view = r.view
		s.batch = cut.Reqs
		s.digest = batchDigest(cut.Reqs)
		r.sendPrePrepare(seq, s)
		outstanding = r.seq - r.lastExec
	}
}

// sendPrePrepare has the primary assign slot s, at seq, its batch: it
// broadcasts the pre-prepare and keeps it for onTick to send again.
func (r *Replica) sendPrePrepare(seq uint64, s *slot) {
	body := ppBody(s.view, seq, s.digest)
	w := wire.NewWriter(256)
	w.U8(kindPrePrepare)
	w.VarBytes(body)
	w.VarBytes(r.cfg.Auth.TagVector(body))
	batch.MarshalInto(w, s.batch)
	s.pp, s.ppSent = w.Bytes(), time.Now()
	r.Broadcast(s.pp)
}

// --- three-phase agreement -------------------------------------------------

func (r *Replica) onPrePrepare(e evPrePrepare) {
	view, seq, digest, batch := e.view, e.seq, e.digest, e.batch
	if r.inVC || view != r.view || r.isPrimary() {
		return
	}
	s := r.slotFor(seq)
	if s == nil {
		return
	}
	if s.batch != nil && s.view == view && s.digest != digest {
		return // conflicting pre-prepare; ignore (view change handles)
	}
	s.view = view
	s.batch = batch
	s.digest = digest
	// Send prepare.
	pb := prepBody(view, seq, digest, uint32(r.cfg.Self))
	ptag := r.cfg.Auth.TagVector(pb)
	s.prepares[uint32(r.cfg.Self)] = ptag
	w := wire.NewWriter(128)
	w.U8(kindPrepare)
	w.U32(uint32(r.cfg.Self))
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	w.VarBytes(ptag)
	r.Broadcast(w.Bytes())
	r.maybePrepared(seq, s)
}

func (r *Replica) onPrepare(e evPrepare) {
	if r.inVC || e.view != r.view {
		return
	}
	s := r.slotFor(e.seq)
	if s == nil {
		return
	}
	if s.batch != nil && s.digest != e.digest {
		return
	}
	s.prepares[e.replica] = append([]byte(nil), e.tag...)
	r.maybePrepared(e.seq, s)
}

// maybePrepared checks the prepared predicate: a pre-prepare plus
// 2f prepares from distinct backups.
func (r *Replica) maybePrepared(seq uint64, s *slot) {
	if s.prepared || s.batch == nil {
		return
	}
	// The primary's pre-prepare is its vote; count backup prepares.
	need := 2 * r.cfg.F
	if len(s.prepares) < need {
		return
	}
	s.prepared = true
	s.prepareProof = s.prepareProof[:0]
	for rep, tag := range s.prepares {
		s.prepareProof = append(s.prepareProof, part{Replica: rep, Tag: tag})
	}
	if !s.sentCommit {
		s.sentCommit = true
		cb := commitBody(r.view, seq, s.digest, uint32(r.cfg.Self))
		ctag := r.cfg.Auth.TagVector(cb)
		s.commits[uint32(r.cfg.Self)] = ctag
		w := wire.NewWriter(128)
		w.U8(kindCommit)
		w.U32(uint32(r.cfg.Self))
		w.U64(r.view)
		w.U64(seq)
		w.Bytes32(s.digest)
		w.VarBytes(ctag)
		r.Broadcast(w.Bytes())
	}
	r.maybeCommitted(seq, s)
}

func (r *Replica) onCommit(e evCommit) {
	if r.inVC || e.view != r.view {
		return
	}
	s := r.slotFor(e.seq)
	if s == nil {
		return
	}
	if s.batch != nil && s.digest != e.digest {
		return
	}
	s.commits[e.replica] = append([]byte(nil), e.tag...)
	r.maybeCommitted(e.seq, s)
}

func (r *Replica) maybeCommitted(seq uint64, s *slot) {
	if s.committed || !s.prepared {
		return
	}
	if s.batch == nil || len(s.commits) < 2*r.cfg.F+1 {
		return
	}
	s.committed = true
	r.executeReady()
}

func (r *Replica) executeReady() {
	for {
		s, ok := r.log.Get(r.lastExec + 1)
		if !ok || !s.committed || s.executed {
			return
		}
		seq := r.lastExec + 1
		s.executed = true
		r.lastExec = seq
		for _, req := range s.batch {
			if rep, _ := r.ExecuteReply(req, replication.Reply{View: r.view, Slot: seq}); rep != nil {
				delete(r.pendingClientReqs, replica.KeyOf(req))
				r.queue.Done(req)
			}
		}
		if seq%uint64(r.cfg.CheckpointInterval) == 0 {
			r.captureCheckpoint(seq)
		}
		r.tryIssue()
	}
}

// --- timers ---------------------------------------------------------------

// onTick runs on the runtime loop via ArmEvery. The primary sends again
// every pre-prepare that has not committed within half a RequestTimeout:
// a backup that missed one learns of its requests only from client
// retries, and suspects the primary a whole RequestTimeout after that.
func (r *Replica) onTick() {
	now := time.Now()
	if r.isPrimary() && !r.inVC {
		for seq := r.lastExec + 1; seq <= r.seq; seq++ {
			if s, ok := r.log.Get(seq); ok && !s.committed && s.pp != nil && now.Sub(s.ppSent) > r.cfg.RequestTimeout/2 {
				s.ppSent = now
				r.Broadcast(s.pp)
			}
		}
	}
	if !r.inVC {
		for key, since := range r.pendingClientReqs {
			if now.Sub(since) > r.cfg.RequestTimeout {
				delete(r.pendingClientReqs, key)
				r.startViewChange(r.view + 1)
				return
			}
		}
		return
	}
	if now.Sub(r.vcStart) > r.cfg.ViewChangeTimeout {
		r.startViewChange(r.vcTarget + 1)
	}
}
