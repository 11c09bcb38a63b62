// Package minbft implements MinBFT (Veronese et al., 2013), the
// trusted-component baseline of the paper's evaluation. Each replica owns
// a USIG (unique sequential identifier generator, run in SGX in the
// paper; see internal/usig): because the USIG makes equivocation
// impossible, 2f+1 replicas suffice and agreement needs only two phases
// — the primary's PREPARE (carrying a UI that fixes the order) and one
// round of COMMITs, with execution after f+1 matching commits.
//
// The view-change protocol is out of scope (the evaluation exercises the
// fault-free case); the authenticator complexity of the normal case —
// O(N²) MACs, as Table 1 notes — is faithfully reproduced.
package minbft

import (
	"time"

	"neobft/internal/batch"
	"neobft/internal/metrics"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/usig"
	"neobft/internal/wire"
)

// Flight-recorder event kind for rejected (non-sequential or forged) UIs.
var tkMinbftUIFail = metrics.RegisterTraceKind("minbft_ui_fail") // a=replica, b=counter

// Message kinds.
const (
	kindPrepare uint8 = replication.KindProtocolBase + iota
	kindCommit
	kindCheckpoint
	kindStateFetch
	kindStateSnap
)

// ckptDomain separates MinBFT checkpoint authenticators from other
// protocols sharing the seqlog wire helpers.
const ckptDomain = "minbft-ckpt"

// window caps outstanding prepares.
const window = 2

// Config configures a MinBFT replica. N must be 2F+1. CheckpointInterval
// is the number of slots between checkpoints (default 128); because the
// USIG rules out equivocation, f+1 matching checkpoint votes suffice for
// stability (vs 2f+1 in PBFT). Restore boots from a Persist() blob; the
// USIG instance must be the one the crashed replica used (the trusted
// counter lives in the enclave).
type Config struct {
	replica.Config
	// USIG is the replica's trusted component.
	USIG *usig.USIG
	// Batch configures the primary's batcher (batch defaults when zero).
	Batch batch.Config
}

type slot struct {
	digest  [32]byte
	batch   []*replication.Request
	primUI  usig.UI
	commits map[uint32]bool // replicas whose commit matched (incl. primary)
	execed  bool
}

// Replica is a MinBFT replica.
type Replica struct {
	*replica.Core
	cfg Config

	view     uint64
	log      seqlog.Log[*slot] // primary counter → slot, watermark-bounded
	lastExec uint64            // last executed primary counter
	lastSeen map[uint32]uint64
	// queue holds client requests at the primary (with their trace refs,
	// closed into ordering spans when the USIG counter is assigned) and
	// cuts prepare batches per the shared hybrid policy.
	queue *replica.Queue

	// ckpt runs checkpoints: f+1 matching votes make one stable, and
	// stability truncates the log window.
	ckpt *seqlog.Checkpointer

	// metrics (nil-safe no-ops when unconfigured)
	mHorizonRej *metrics.Counter
}

var minbftKindNames = map[uint8]string{
	kindPrepare: "prepare", kindCommit: "commit", kindCheckpoint: "checkpoint",
	kindStateFetch: "state_fetch", kindStateSnap: "state_snapshot",
}

// New creates and starts a MinBFT replica.
func New(cfg Config) *Replica {
	core := replica.NewCore(&cfg.Config, 128, minbftKindNames)
	r := &Replica{
		Core:     core,
		cfg:      cfg,
		lastSeen: map[uint32]uint64{},
		ckpt: seqlog.NewCheckpointer(seqlog.CheckpointConfig{
			Domain: ckptDomain, Self: cfg.Self, N: cfg.N, Quorum: cfg.F + 1,
			Auth: cfg.Auth, Metrics: cfg.Metrics,
		}),
		mHorizonRej: cfg.Metrics.Counter("proto_sync_horizon_rejects_total"),
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

// HighWatermark returns the highest materialized log slot.
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

// horizon is the highest primary counter this replica will
// materialize a slot for: two checkpoint intervals above the last stable
// checkpoint.
func (r *Replica) horizon() uint64 {
	return r.log.Low() + 2*uint64(r.cfg.CheckpointInterval)
}

// slotFor materializes the dense window up to counter and returns its
// slot, or nil when the counter lies outside the watermark window (below
// the last stable checkpoint, or beyond the horizon — the latter bounds
// memory against Byzantine far-future commits).
func (r *Replica) slotFor(counter uint64) *slot {
	if counter == 0 || counter <= r.log.Low() {
		return nil
	}
	if counter > r.horizon() {
		r.mHorizonRej.Inc()
		return nil
	}
	for r.log.High() < counter {
		r.log.Append(&slot{commits: map[uint32]bool{}})
	}
	r.SetWindow(r.log.Low(), r.log.High())
	s, _ := r.log.Get(counter)
	return s
}

func prepareDigest(view uint64, batchD [32]byte) [32]byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("minbft-prep"))
	w.U64(view)
	w.Bytes32(batchD)
	return wire.Digest(w.Bytes())
}

func commitDigest(view uint64, replica uint32, primCounter uint64, batchD [32]byte) [32]byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("minbft-commit"))
	w.U64(view)
	w.U32(replica)
	w.U64(primCounter)
	w.Bytes32(batchD)
	return wire.Digest(w.Bytes())
}

// --- verify stage (worker goroutines) --------------------------------------
//
// USIG verification is where the pipeline pays off most for MinBFT: each
// VerifyUI includes the emulated enclave latency (usig.Delay), so moving
// it to workers overlaps enclave round-trips across packets. VerifyUI is
// thread-safe (only CreateUI mutates the monotonic counter, and it keeps
// running on the loop).

type evRequest struct{ req *replication.Request }

type evPrepare struct {
	view, counter uint64
	ui            usig.UI
	bd            [32]byte
	batch         []*replication.Request
}

type evCommit struct {
	view    uint64
	replica uint32
	counter uint64
	bd      [32]byte
	ui      usig.UI
}

type evStateFetch struct{ haveExec uint64 }

type evStateSnap struct{ body []byte }

// VerifyPacket implements runtime.Handler.
func (r *Replica) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if !r.CountMsg(pkt) {
		return nil
	}
	switch pkt[0] {
	case replication.KindRequest:
		if req := r.VerifyRequest(pkt[1:]); req != nil {
			return evRequest{req: req}
		}
		return nil
	case kindPrepare:
		rd := wire.NewReader(pkt[1:])
		view := rd.U64()
		counter := rd.U64()
		cert := rd.Bytes32()
		bd := rd.Bytes32()
		reqs, ok := batch.Unmarshal(rd)
		if !ok || rd.Done() != nil {
			return nil
		}
		// Verify against the claimed view's primary; apply rejects
		// packets whose claimed view is not current.
		prim := uint32(int(view) % r.cfg.N)
		ui := usig.UI{Counter: counter, Cert: cert}
		if !r.cfg.USIG.VerifyUI(prim, prepareDigest(view, bd), ui) {
			r.AuthFail.Inc()
			r.Trace().Record(tkMinbftUIFail, uint64(prim), counter)
			return nil
		}
		if batch.Digest(reqs) != bd {
			return nil
		}
		return evPrepare{view: view, counter: counter, ui: ui, bd: bd, batch: reqs}
	case kindCommit:
		rd := wire.NewReader(pkt[1:])
		view := rd.U64()
		replica := rd.U32()
		counter := rd.U64()
		bd := rd.Bytes32()
		uiCounter := rd.U64()
		uiCert := rd.Bytes32()
		if rd.Done() != nil || int(replica) >= r.cfg.N {
			return nil
		}
		ui := usig.UI{Counter: uiCounter, Cert: uiCert}
		if !r.cfg.USIG.VerifyUI(replica, commitDigest(view, replica, counter, bd), ui) {
			r.AuthFail.Inc()
			r.Trace().Record(tkMinbftUIFail, uint64(replica), uiCounter)
			return nil
		}
		return evCommit{view: view, replica: replica, counter: counter, bd: bd, ui: ui}
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

// ApplyEvent implements runtime.Handler.
func (r *Replica) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	switch e := ev.(type) {
	case evRequest:
		r.onRequest(e.req)
	case evPrepare:
		r.onPrepare(e)
	case evCommit:
		r.onCommit(e)
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
	for r.queue.Ready(now) && r.cfg.USIG.Counter()-r.lastExec < window {
		if r.cfg.USIG.Counter()+1 > r.horizon() {
			// The watermark window is full: wait for a checkpoint to
			// stabilize before consuming another USIG counter.
			return
		}
		cut, _ := r.queue.Cut(now)
		bd := batch.Digest(cut.Reqs)
		ui := r.cfg.USIG.CreateUI(prepareDigest(r.view, bd))
		cut.EndOrder(r.Runtime().Tracer(), ui.Counter)

		s := r.slotFor(ui.Counter)
		if s == nil {
			return
		}
		s.digest = bd
		s.batch = cut.Reqs
		s.primUI = ui

		w := wire.NewWriter(512)
		w.U8(kindPrepare)
		w.U64(r.view)
		w.U64(ui.Counter)
		w.Bytes32(ui.Cert)
		w.Bytes32(bd)
		batch.MarshalInto(w, cut.Reqs)
		r.Broadcast(w.Bytes())
		r.maybeExecute()
	}
}

func (r *Replica) onPrepare(e evPrepare) {
	view, counter, bd := e.view, e.counter, e.bd
	if view != r.view || r.isPrimary() {
		return
	}
	prim := uint32(r.primary())
	// The UI counter must be sequential: gaps or repeats mean a faulty
	// primary (the USIG makes forging impossible).
	if counter != r.lastSeen[prim]+1 {
		return
	}
	s := r.slotFor(counter)
	if s == nil {
		// Outside the watermark window (e.g. beyond the horizon while this
		// replica waits on a snapshot transfer): don't advance lastSeen, so
		// the primary's retransmission after catch-up is still sequential.
		return
	}
	r.lastSeen[prim] = counter
	s.digest = bd
	s.batch = e.batch
	s.primUI = e.ui

	// Broadcast our commit, certified by our own USIG. Execution needs
	// f+1 commits from distinct replicas (the prepare itself is not a
	// commit vote), which preserves MinBFT's four message delays.
	myUI := r.cfg.USIG.CreateUI(commitDigest(view, uint32(r.cfg.Self), counter, bd))
	s.commits[uint32(r.cfg.Self)] = true
	w := wire.NewWriter(192)
	w.U8(kindCommit)
	w.U64(view)
	w.U32(uint32(r.cfg.Self))
	w.U64(counter)
	w.Bytes32(bd)
	w.U64(myUI.Counter)
	w.Bytes32(myUI.Cert)
	r.Broadcast(w.Bytes())
	r.maybeExecute()
}

func (r *Replica) onCommit(e evCommit) {
	view, replica, counter, bd := e.view, e.replica, e.counter, e.bd
	if view != r.view || replica == uint32(r.cfg.Self) {
		return
	}
	// Sequential counter per sender (skipping is equivocation evidence).
	if e.ui.Counter <= r.lastSeen[replica] {
		return
	}
	r.lastSeen[replica] = e.ui.Counter
	s := r.slotFor(counter)
	if s == nil {
		return
	}
	if s.batch != nil && s.digest != bd {
		return
	}
	s.commits[replica] = true
	r.maybeExecute()
}

// maybeExecute executes slots in primary-counter order once they
// hold f+1 matching commits.
func (r *Replica) maybeExecute() {
	for {
		s, ok := r.log.Get(r.lastExec + 1)
		if !ok || s.execed || s.batch == nil || len(s.commits) < r.cfg.F+1 {
			return
		}
		s.execed = true
		r.lastExec++
		for _, req := range s.batch {
			if rep, _ := r.ExecuteReply(req, replication.Reply{View: r.view, Slot: r.lastExec}); rep != nil {
				r.queue.Done(req)
			}
		}
		if r.lastExec%uint64(r.cfg.CheckpointInterval) == 0 {
			r.captureCheckpoint(r.lastExec)
		}
		r.tryIssue()
	}
}

// NewClient builds a MinBFT client (f+1 matching replies).
func NewClient(conn transport.Conn, master []byte, n, f int, members []transport.NodeID, tune replication.Tuning) *replication.Client {
	cfg := replication.ClientConfig{
		Conn: conn, N: n, F: f, Quorum: f + 1,
		Submit: func(req *replication.Request, retry bool) {
			pkt := req.Marshal()
			if retry {
				for _, m := range members {
					conn.Send(m, pkt)
				}
				return
			}
			conn.Send(members[0], pkt)
		},
	}
	tune.Apply(&cfg)
	return replication.NewWiredClient(cfg, master)
}
