package neobft

import (
	"sync"
	"time"

	"neobft/internal/aom"
	"neobft/internal/configsvc"
	"neobft/internal/metrics"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Status is the replica's operating mode.
type Status int

// Replica status values.
const (
	StatusNormal Status = iota
	StatusViewChange
)

// Config configures a NeoBFT replica. N = 3F+1 replicas tolerate F
// faults, and Members are also the aom group members. CheckpointInterval
// is the state-synchronization period in log slots (§B.2, default 256).
// Restore boots from a Persist() blob: the stable checkpoint (certificate
// + chain hash + snapshot) plus the view and epoch-start table. The blob
// is honoured only if its epoch is still the group's current epoch;
// otherwise the replica cold-starts and recovers from peers.
type Config struct {
	replica.Config
	// Group is the aom group ID.
	Group uint32
	// Variant selects the aom authenticator flavour.
	Variant wire.AuthKind
	// Byzantine enables the aom confirm exchange (untrusted network).
	Byzantine bool
	// ConfirmFlushEvery batches confirm messages (Byzantine mode).
	ConfirmFlushEvery time.Duration
	// ConfirmBatch is the confirm batch size (Byzantine mode).
	ConfirmBatch int
	// Svc is the configuration service (sequencer failover and epoch
	// credentials). Required.
	Svc *configsvc.Service
	// QueryTimeout is how long a blocked replica waits for a query reply
	// or gap decision before resending / suspecting the leader.
	QueryTimeout time.Duration
	// RequestTimeout is how long a client-unicast request may stay
	// undelivered by aom before the replica suspects the sequencer. It
	// binds while aom packets keep arriving; if none arrives at all, one
	// TickInterval is enough.
	RequestTimeout time.Duration
	// ViewChangeTimeout bounds a view change attempt before moving to
	// the next view.
	ViewChangeTimeout time.Duration
	// TickInterval drives the replica's internal timers. Default 10ms.
	TickInterval time.Duration
}

// logEntry is one slot of the replica's log.
type logEntry struct {
	noOp    bool
	cert    *aom.OrderingCert
	req     *replication.Request // parsed from cert payload (nil for no-op)
	authOK  bool                 // client authenticator verified
	epoch   uint32               // epoch the slot belongs to
	digest  [32]byte             // entry digest for the hash chain
	logHash [32]byte             // chain value up to and including this slot
	gapCert *GapCert             // proof for no-ops
}

// undoRec records one speculative execution for a rollback. undo is the
// App's undo function, nil when it returned none (a read).
type undoRec struct {
	slot   uint64
	client transport.NodeID
	undo   func()
	// prevID, prevReply and hadPrev are the client's table entry from
	// before the execution, which a rollback puts back.
	prevID    uint64
	prevReply *replication.Reply
	hadPrev   bool
}

// Replica is a NeoBFT replica.
type Replica struct {
	*replica.Core
	cfg  Config
	recv *aom.Receiver

	status Status
	view   ViewID
	// log is the memory-bounded slot store: slots keep their absolute
	// numbers while everything at or below the stable checkpoint (the low
	// watermark) is truncated away.
	log seqlog.Log[*logEntry]
	// baseHash is the hash-chain value at the log's low watermark (zero
	// before any truncation).
	baseHash [32]byte
	// epochStart[e] is the slot count when epoch e began (entries with
	// slot > epochStart[e] and slot ≤ end belong to e).
	epochStart map[uint32]uint64
	epochCerts map[uint32]*EpochCert
	verifiers  map[uint32]*aom.CertVerifier

	specExecuted uint64 // highest slot executed (speculatively)
	undoStack    []undoRec
	syncPoint    uint64

	// ckpt runs state synchronisation: 2f+1 matching votes binding the
	// log hash and the state make a sync point stable.
	ckpt *seqlog.Checkpointer

	// blockedOn is the slot whose resolution gates further delivery
	// processing; 0 when not blocked (§5.4).
	blockedOn     uint64
	blockedSince  time.Time
	buffered      []aom.Delivery
	queryAttempts int

	gaps map[uint64]*gapSlot

	vc         *vcState
	epochVotes map[uint32]map[uint32]epochVote
	pendingVC  map[ViewID]map[uint32]*viewChangeMsg

	// pendingClientReqs holds requests received by unicast that have not
	// yet appeared in the log (sequencer suspicion, §5.5); the leader of a
	// new epoch re-submits them.
	pendingClientReqs map[replica.ReqKey]*heldReq
	// aomApplied counts the aom packets applied on the loop. A held request
	// that sees it stand still for a tick suspects the sequencer at once.
	aomApplied uint64

	stopOnce sync.Once

	// counters
	gapAgreed   uint64
	viewChanges uint64

	// metrics (nil-safe no-ops when unconfigured)
	mGapAgree   *metrics.Counter
	mViewChg    *metrics.Counter
	mEpochChg   *metrics.Counter
	mSyncAdv    *metrics.Counter
	mStateXfer  *metrics.Counter
	mSyncReject *metrics.Counter
	mMsgAOM     *metrics.Counter
}

// Flight-recorder event kinds for the rare-path protocol machinery.
var (
	tkGapCommitted = metrics.RegisterTraceKind("neobft_gap_committed") // a=slot, b=1 if recv
	tkViewChange   = metrics.RegisterTraceKind("neobft_view_change")   // a=epoch, b=leader
	tkEpochStart   = metrics.RegisterTraceKind("neobft_epoch_start")   // a=epoch, b=slot
	tkSyncPoint    = metrics.RegisterTraceKind("neobft_sync_point")    // a=slot
	tkStateXfer    = metrics.RegisterTraceKind("neobft_state_transfer")
)

// neobftKindNames names the protocol message kinds for per-type counters.
var neobftKindNames = map[uint8]string{
	kindQuery: "query", kindQueryReply: "query_reply",
	kindGapFind: "gap_find", kindGapRecv: "gap_recv", kindGapDrop: "gap_drop",
	kindGapDecision: "gap_decision", kindGapPrepare: "gap_prepare",
	kindGapCommit: "gap_commit", kindViewChange: "view_change",
	kindViewStart: "view_start", kindEpochStart: "epoch_start",
	kindSync: "sync", kindStateRequest: "state_request",
	kindStateReply: "state_reply", kindStateSnapshot: "state_snapshot",
}

// New creates and starts a NeoBFT replica. The initial view is epoch 1,
// leader 0; the group must already exist at the configuration service.
func New(cfg Config) *Replica {
	core := replica.NewCore(&cfg.Config, 256, neobftKindNames)
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 50 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 200 * time.Millisecond
	}
	if cfg.ViewChangeTimeout == 0 {
		cfg.ViewChangeTimeout = 500 * time.Millisecond
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	reg := cfg.Metrics
	r := &Replica{
		Core:              core,
		cfg:               cfg,
		view:              ViewID{Epoch: 1, Leader: 0},
		epochStart:        map[uint32]uint64{1: 0},
		epochCerts:        map[uint32]*EpochCert{},
		verifiers:         map[uint32]*aom.CertVerifier{},
		gaps:              map[uint64]*gapSlot{},
		pendingClientReqs: map[replica.ReqKey]*heldReq{},
		ckpt: seqlog.NewCheckpointer(seqlog.CheckpointConfig{
			Domain: ckptDomain, Self: cfg.Self, N: cfg.N, Quorum: 2*cfg.F + 1, Extra: 1,
			Auth: cfg.Auth, Metrics: reg,
		}),
		mGapAgree:   reg.Counter("proto_gap_agreements_total"),
		mViewChg:    reg.Counter("proto_view_changes_total"),
		mEpochChg:   reg.Counter("proto_epoch_changes_total"),
		mSyncAdv:    reg.Counter("proto_sync_rounds_total"),
		mStateXfer:  reg.Counter("proto_state_transfers_total"),
		mSyncReject: reg.Counter("proto_sync_horizon_rejects_total"),
		mMsgAOM:     reg.Counter("proto_msg_aom_total"),
	}
	ep, err := cfg.Svc.ReceiverEpochConfig(cfg.Group, cfg.Self)
	if err != nil {
		panic("neobft: group not configured: " + err.Error())
	}
	r.recv = aom.NewReceiver(aom.ReceiverConfig{
		Group:             cfg.Group,
		Variant:           cfg.Variant,
		SelfIndex:         cfg.Self,
		Members:           cfg.Members,
		F:                 cfg.F,
		Byzantine:         cfg.Byzantine,
		Auth:              cfg.Auth,
		Conn:              cfg.Conn,
		Deliver:           r.processDelivery,
		ConfirmBatch:      cfg.ConfirmBatch,
		ConfirmFlushEvery: cfg.ConfirmFlushEvery,
		Metrics:           reg,
		Tracer:            cfg.Runtime.Tracer(),
	}, ep)
	r.installVerifier(1, ep)
	if cfg.Restore != nil {
		r.restoreFromPersist(cfg.Restore)
	}
	r.Runtime().ArmEvery(cfg.TickInterval, r.onTick)
	r.Runtime().Start(r)
	return r
}

// Close stops the replica's background machinery.
func (r *Replica) Close() {
	r.stopOnce.Do(func() {
		r.Core.Close()
		r.recv.Close()
	})
}

func (r *Replica) installVerifier(epoch uint32, ep aom.EpochConfig) {
	v := &aom.CertVerifier{
		Variant:   r.cfg.Variant,
		Group:     r.cfg.Group,
		Epoch:     epoch,
		SelfIndex: r.cfg.Self,
		HMACKey:   ep.HMACKey,
		Byzantine: r.cfg.Byzantine,
		N:         r.cfg.N,
		F:         r.cfg.F,
		Auth:      r.cfg.Auth,
	}
	if r.cfg.Variant == wire.AuthPK {
		// Share the receiver's table: both check the same switch key.
		v.PK = r.recv.PKVerifier()
	}
	r.verifiers[epoch] = v
}

// View returns the replica's current view.
func (r *Replica) View() ViewID { return replica.Read(r.Core, func() ViewID { return r.view }) }

// Status returns the replica's operating mode.
func (r *Replica) Status() Status { return replica.Read(r.Core, func() Status { return r.status }) }

// LogLen returns the highest appended slot (the high watermark; slots
// below the low watermark have been truncated but keep their numbers).
func (r *Replica) LogLen() uint64 { return replica.Read(r.Core, func() uint64 { return r.log.High() }) }

// LowWatermark returns the highest truncated slot (the stable
// checkpoint below which memory has been reclaimed).
func (r *Replica) LowWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.Low() })
}

// HighWatermark returns the highest appended slot (alias of LogLen,
// named for symmetry with the other protocols' watermark accessors).
func (r *Replica) HighWatermark() uint64 { return r.LogLen() }

// CheckpointVotes returns the number of slots with outstanding
// checkpoint votes (for Byzantine-bounding tests).
func (r *Replica) CheckpointVotes() int {
	return replica.Read(r.Core, func() int { return r.ckpt.Votes() })
}

// GapSlots returns the number of slots with live gap-agreement state
// (for Byzantine-bounding tests).
func (r *Replica) GapSlots() int { return replica.Read(r.Core, func() int { return len(r.gaps) }) }

// SnapshotInstalls returns how many snapshot state transfers this
// replica has installed.
func (r *Replica) SnapshotInstalls() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.ckpt.Installs() })
}

// Executed returns the highest (speculatively) executed slot.
func (r *Replica) Executed() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.specExecuted })
}

// SyncPoint returns the committed prefix established by state sync.
func (r *Replica) SyncPoint() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.syncPoint })
}

// Committed returns how many client operations this replica has executed.
func (r *Replica) Committed() uint64 { return r.Core.Executed() }

// GapAgreements returns how many slots were resolved through the gap
// agreement protocol.
func (r *Replica) GapAgreements() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.gapAgreed })
}

// ViewChanges returns how many view changes this replica has completed.
func (r *Replica) ViewChanges() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.viewChanges })
}

func (r *Replica) isLeader() bool { return r.view.LeaderIndex(r.cfg.N) == r.cfg.Self }

func (r *Replica) leaderNode() transport.NodeID {
	return r.cfg.Members[r.view.LeaderIndex(r.cfg.N)]
}

// Events produced by VerifyPacket and consumed by ApplyEvent.
type (
	// evAOM is a libAOM packet (stamped message or confirm) with its
	// worker-computed verdicts.
	evAOM struct {
		pkt []byte
		pre *aom.PreVerified
	}
	// evClientRequest is a unicast client request whose MAC verified.
	evClientRequest struct{ req *replication.Request }
	// evProto is a replica-to-replica protocol message; these rare-path
	// messages carry their own proofs and are verified during apply.
	evProto struct{ pkt []byte }
)

// VerifyPacket implements runtime.Handler. It runs on verification
// workers and performs all cryptographic checks that need no replica
// state: the aom authenticator lane/signature and payload digest (via
// the receiver's PreVerify), client-request MACs, and confirm
// authenticators. Protocol messages (gap agreement, view change, state
// sync) carry quorum proofs checked against replica state, so they pass
// through to the loop untouched.
func (r *Replica) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if pre, consumed := r.recv.PreVerify(pkt); consumed {
		return r.aomEvent(pkt, pre)
	}
	return r.verifyOther(pkt)
}

// ExpensiveVerify implements runtime.ExpensiveVerifier: aom-pk packets
// carry secp256k1 signatures, worth a worker pool and batching; an
// aom-hm packet is one HalfSipHash check, cheaper than the handoff.
func (r *Replica) ExpensiveVerify() bool { return r.cfg.Variant == wire.AuthPK }

// VerifyPacketBatch implements runtime.BatchVerifier: libAOM packets in
// the batch share one PreVerifyBatch call, which pulls every decodable
// aom-pk sequencer signature into a single batched secp256k1
// verification. Non-aom packets fall through to the single-packet path.
func (r *Replica) VerifyPacketBatch(froms []transport.NodeID, pkts [][]byte) []runtime.Event {
	out := make([]runtime.Event, len(pkts))
	pres := r.recv.PreVerifyBatch(pkts)
	for i, pre := range pres {
		if pre != nil {
			out[i] = r.aomEvent(pkts[i], pre)
		} else {
			out[i] = r.verifyOther(pkts[i])
		}
	}
	return out
}

// aomEvent finishes worker-side processing of a packet the receiver
// consumed: decode the carried request and check its client MAC while
// still off the loop, then wrap the verdicts as an event. The checked
// request travels with the packet to appendRequest.
func (r *Replica) aomEvent(pkt []byte, pre *aom.PreVerified) runtime.Event {
	if pre != nil && pre.Hdr != nil && pre.DigestOK {
		pre.Decoded = r.checkRequest(pre.Payload)
	}
	r.mMsgAOM.Inc()
	return evAOM{pkt: pkt, pre: pre}
}

// verifyOther handles the non-aom part of VerifyPacket: client-request
// MACs and protocol-message classification.
func (r *Replica) verifyOther(pkt []byte) runtime.Event {
	if len(pkt) == 0 {
		return nil
	}
	if pkt[0] == replication.KindRequest {
		req := r.VerifyRequest(pkt[1:])
		if req == nil {
			return nil
		}
		r.CountMsg(pkt)
		return evClientRequest{req: req}
	}
	if _, ok := neobftKindNames[pkt[0]]; ok {
		r.CountMsg(pkt)
		return evProto{pkt: pkt}
	}
	return nil
}

// checkRequest decodes the client request an aom payload carries and
// checks its MAC. It reads no loop state, so verification workers call
// it. The entry it returns has only req and authOK set; req is nil when
// the payload is no request.
func (r *Replica) checkRequest(payload []byte) *logEntry {
	e := &logEntry{}
	if req, err := replication.UnmarshalRequest(requestBody(payload)); err == nil {
		e.req, e.authOK = req, r.VerifyClient(req)
	}
	return e
}

// ApplyEvent implements runtime.Handler: ordered, single-threaded
// protocol processing on the runtime loop.
func (r *Replica) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	switch e := ev.(type) {
	case evAOM:
		r.aomApplied++
		r.recv.HandlePacketPre(from, e.pkt, e.pre)
	case evClientRequest:
		r.onClientRequest(from, e.req)
	case evProto:
		pkt := e.pkt
		switch pkt[0] {
		case kindQuery:
			r.onQuery(from, pkt[1:])
		case kindQueryReply:
			r.onQueryReply(pkt[1:])
		case kindGapFind:
			r.onGapFind(pkt[1:])
		case kindGapRecv:
			r.onGapRecv(pkt[1:])
		case kindGapDrop:
			r.onGapDrop(pkt[1:])
		case kindGapDecision:
			r.onGapDecision(pkt[1:])
		case kindGapPrepare:
			r.onGapPrepare(pkt[1:])
		case kindGapCommit:
			r.onGapCommit(pkt[1:])
		case kindViewChange:
			r.onViewChange(pkt[1:])
		case kindViewStart:
			r.onViewStart(pkt[1:])
		case kindEpochStart:
			r.onEpochStart(pkt[1:])
		case kindSync:
			r.onSync(pkt[1:])
		case kindStateRequest:
			r.onStateRequest(from, pkt[1:])
		case kindStateReply:
			r.onStateReply(pkt[1:])
		case kindStateSnapshot:
			r.onStateSnapshot(pkt[1:])
		}
	}
}

// processDelivery receives ordered aom deliveries (messages and
// drop-notifications) from the receiver, on the loop, and replays the
// ones buffered while a gap blocked delivery.
func (r *Replica) processDelivery(d aom.Delivery) {
	if r.status != StatusNormal || d.Epoch != r.view.Epoch {
		return // deliveries from old epochs die with their epoch
	}
	if r.blockedOn != 0 {
		r.buffered = append(r.buffered, d)
		return
	}
	slot := r.epochStart[r.view.Epoch] + d.Seq
	if slot != r.log.High()+1 {
		return // stale or out-of-line delivery
	}
	// A gap agreement may already have committed this slot while we were
	// behind; the committed decision wins over the raw delivery.
	if g := r.gaps[slot]; g != nil && g.committed {
		if g.committedRecv {
			r.appendRequest(g.decision.cert, nil)
		} else {
			r.appendEntry(&logEntry{noOp: true, epoch: r.view.Epoch, gapCert: g.gapCert})
			r.executeReady()
		}
		return
	}
	if d.Dropped {
		r.startGapResolution(slot)
		return
	}
	checked, _ := d.Decoded.(*logEntry)
	r.appendRequest(d.Cert, checked)
}

// appendRequest appends an oc to the next log slot, speculatively
// executes it and replies to the client (§5.3). checked is the entry
// checkRequest made for the oc's payload on a verification worker; when
// there is none (inline receipt, an epoch switch while the packet was
// queued, a gap decision) the request is decoded and checked here.
func (r *Replica) appendRequest(cert *aom.OrderingCert, checked *logEntry) {
	e := checked
	if e == nil {
		e = r.checkRequest(cert.Payload)
	}
	e.cert = cert
	e.epoch = r.view.Epoch
	e.digest = cert.Digest // verified against the payload by libAOM
	r.appendEntry(e)
	r.executeReady()
}

// appendEntry pushes an entry and extends the hash chain (also while
// rebuilding the log in state sync and view changes). Checkpoints are
// triggered by execution crossing an interval boundary (executeReady),
// not by appends, so the snapshot captures the state exactly at the
// checkpoint slot.
func (r *Replica) appendEntry(e *logEntry) {
	prev := r.baseHash
	if last, ok := r.log.Last(); ok {
		prev = last.logHash
	}
	if e.noOp {
		e.digest = noOpDigest
	}
	e.logHash = replication.ChainHash(prev, e.digest)
	r.log.Append(e)
	r.SetWindow(r.log.Low(), r.log.High())
}

// noOpDigest marks no-op slots in the hash chain.
var noOpDigest = wire.Digest([]byte("neobft/no-op"))

// executeReady executes every consecutive filled slot beyond
// specExecuted, capturing a checkpoint whenever execution crosses an
// interval boundary (§B.2).
func (r *Replica) executeReady() {
	for r.specExecuted < r.log.High() {
		slot := r.specExecuted + 1
		e, ok := r.log.Get(slot)
		if !ok {
			return
		}
		r.executeSlot(slot, e)
		r.specExecuted = slot
		if r.cfg.CheckpointInterval > 0 && slot%uint64(r.cfg.CheckpointInterval) == 0 && slot > r.syncPoint {
			r.captureCheckpoint(slot)
		}
	}
}

func (r *Replica) executeSlot(slot uint64, e *logEntry) {
	if e.noOp || e.req == nil || !e.authOK {
		return // no-ops and unauthenticated requests leave state unchanged
	}
	req := e.req
	prevID, prevReply, hadPrev := r.Table.Last(req.Client)
	rep, undo := r.ExecuteReply(req, replication.Reply{View: r.view.Pack(), Slot: slot, LogHash: e.logHash})
	if rep == nil {
		return
	}
	// Every execution is recorded, reads too: a rollback must also put
	// back the client-table entry a read created, or the read's retry is
	// answered from a reply computed at the dropped position.
	r.undoStack = append(r.undoStack, undoRec{slot: slot, client: req.Client, undo: undo,
		prevID: prevID, prevReply: prevReply, hadPrev: hadPrev})
	if len(r.pendingClientReqs) > 0 {
		delete(r.pendingClientReqs, replica.KeyOf(req))
	}
}

// rollbackTo rolls application state back to just before slot
// (§5.4): undoes speculative executions in reverse order, then re-executes
// the log after the slot is rewritten. Each undone execution also puts
// back its client's table entry from before it, so a request executed
// below slot stays a duplicate. The caller must rewrite the slot and
// call executeReady afterwards.
func (r *Replica) rollbackTo(slot uint64) {
	for len(r.undoStack) > 0 {
		top := r.undoStack[len(r.undoStack)-1]
		if top.slot < slot {
			break
		}
		if top.undo != nil {
			top.undo()
		}
		r.Table.Revert(top.client, top.prevID, top.prevReply, top.hadPrev)
		r.undoStack = r.undoStack[:len(r.undoStack)-1]
	}
	if r.specExecuted >= slot {
		r.specExecuted = slot - 1
	}
	// Checkpoints captured at or above the rollback point no longer
	// describe the state that will exist there; re-execution across the
	// boundary re-captures and re-votes.
	r.ckpt.Forget(slot)
}

// recomputeHashes rebuilds the hash chain from slot onward after a
// log rewrite.
func (r *Replica) recomputeHashes(slot uint64) {
	prev := r.baseHash
	if slot-1 > r.log.Low() {
		if p, ok := r.log.Get(slot - 1); ok {
			prev = p.logHash
		}
	}
	for s := slot; s <= r.log.High(); s++ {
		e, ok := r.log.Get(s)
		if !ok {
			return
		}
		d := e.digest
		if e.noOp {
			d = noOpDigest
		}
		e.logHash = replication.ChainHash(prev, d)
		prev = e.logHash
	}
}

// onClientRequest handles a request sent by unicast (the client's
// fallback when aom replies are slow, §5.3). The MAC was already
// verified by VerifyPacket. Executed requests are answered from the
// client table; unseen requests are held for sequencer suspicion.
func (r *Replica) onClientRequest(from transport.NodeID, req *replication.Request) {
	if !r.Admit(req) {
		return
	}
	key := replica.KeyOf(req)
	if _, held := r.pendingClientReqs[key]; !held {
		r.pendingClientReqs[key] = &heldReq{req: req, since: time.Now(), aomSeen: r.aomApplied}
	}
}

// heldReq is a unicast request not yet delivered by aom.
type heldReq struct {
	req   *replication.Request
	since time.Time
	// aomSeen is aomApplied when the request arrived.
	aomSeen   uint64
	suspected bool
}

// requestBody strips the envelope kind from an aom payload carrying a
// client request. Clients send the marshaled request (kind byte
// included) as the aom payload.
func requestBody(payload []byte) []byte {
	if len(payload) > 0 && payload[0] == replication.KindRequest {
		return payload[1:]
	}
	return payload
}

// onTick drives timers by checking deadlines periodically. It runs on
// the runtime loop (armed via ArmEvery in New).
func (r *Replica) onTick() {
	now := time.Now()

	// Blocked on a gap: resend query (non-leader) or gap-find (leader);
	// after repeated failures, suspect the leader.
	if r.status == StatusNormal && r.blockedOn != 0 && now.Sub(r.blockedSince) > r.cfg.QueryTimeout {
		r.blockedSince = now
		r.queryAttempts++
		if r.queryAttempts > 5 {
			r.startViewChange(ViewID{Epoch: r.view.Epoch, Leader: r.view.Leader + 1})
			return
		}
		slot := r.blockedOn
		if r.isLeader() {
			r.resendGapFind(slot)
		} else {
			w := wire.NewWriter(32)
			w.U8(kindQuery)
			w.Raw(queryBody(r.view, slot))
			r.Send(r.leaderNode(), w.Bytes())
		}
	}

	// Client-unicast requests not yet delivered by aom: suspect the
	// sequencer and fail over to a new epoch (§5.5). A request that waited
	// a whole tick without a single aom packet arriving suspects at once;
	// while the sequencer is alive the client's own aom copy keeps the
	// count moving, and RequestTimeout stays the bound. Each held request
	// suspects at most once and stays held for the next epoch's leader.
	if r.status == StatusNormal {
		for _, h := range r.pendingClientReqs {
			if h.suspected {
				continue
			}
			waited := now.Sub(h.since)
			if waited > r.cfg.RequestTimeout || waited >= r.cfg.TickInterval && h.aomSeen == r.aomApplied {
				h.suspected = true
				r.suspectSequencer()
				break
			}
		}
	}

	// A view change that stalls moves to the next leader.
	if r.status == StatusViewChange && r.vc != nil && now.Sub(r.vc.started) > r.cfg.ViewChangeTimeout {
		next := ViewID{Epoch: r.vc.target.Epoch, Leader: r.vc.target.Leader + 1}
		r.startViewChange(next)
	}
}

// suspectSequencer reports the sequencer to the configuration
// service and starts a view change into the new epoch.
func (r *Replica) suspectSequencer() {
	view, err := r.cfg.Svc.Failover(r.cfg.Group, r.view.Epoch)
	if err != nil {
		return
	}
	if view.Epoch <= r.view.Epoch {
		return
	}
	r.startViewChange(ViewID{Epoch: view.Epoch, Leader: r.view.Leader})
}
