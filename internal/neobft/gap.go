package neobft

import (
	"time"

	"neobft/internal/aom"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// gapSlot tracks the gap-agreement state for one log slot (§5.4).
type gapSlot struct {
	// Leader collection state.
	findSent bool
	recvCert *aom.OrderingCert
	drops    map[uint32][]byte // replica → tag over gapDropBody
	decided  bool

	// Replica agreement state.
	decision      *gapDecision
	sentDrop      bool
	sentPrepare   bool
	sentCommit    bool
	prepares      map[bool]map[uint32][]byte // recv-or-drop → replica → tag
	commits       map[bool]map[uint32][]byte
	committed     bool
	committedRecv bool
	gapCert       *GapCert
}

type gapDecision struct {
	view ViewID
	slot uint64
	recv bool
	cert *aom.OrderingCert // when recv
}

// gapSlotInWindow bounds the per-slot gap-agreement state a remote
// message may allocate: slots already finalized by a stable checkpoint
// are refused as stale, and slots more than one sync interval above the
// local high watermark are refused as a Byzantine memory-exhaustion
// vector (a faulty replica could otherwise plant unbounded far-future
// state that no checkpoint would ever garbage-collect).
func (r *Replica) gapSlotInWindow(slot uint64) bool {
	if slot == 0 || slot <= r.syncPoint {
		return false
	}
	if slot > r.syncHorizon() {
		r.mSyncReject.Inc()
		return false
	}
	return true
}

func (r *Replica) gapSlotFor(slot uint64) *gapSlot {
	g := r.gaps[slot]
	if g == nil {
		g = &gapSlot{
			drops:    map[uint32][]byte{},
			prepares: map[bool]map[uint32][]byte{true: {}, false: {}},
			commits:  map[bool]map[uint32][]byte{true: {}, false: {}},
		}
		r.gaps[slot] = g
	}
	return g
}

// startGapResolution reacts to a drop-notification for the next
// log slot: the leader starts the gap agreement, a follower queries the
// leader (§5.4).
func (r *Replica) startGapResolution(slot uint64) {
	r.blockedOn = slot
	r.blockedSince = time.Now()
	r.queryAttempts = 0

	// A decision may already have been committed for this slot (we were
	// slow); apply it immediately.
	if g := r.gaps[slot]; g != nil && g.committed {
		r.applyCommittedGap(slot, g)
		return
	}
	if r.isLeader() {
		g := r.gapSlotFor(slot)
		g.findSent = true
		// The leader's own drop-notification is its gap-drop vote.
		body := gapDropBody(r.view, uint32(r.cfg.Self), slot)
		g.drops[uint32(r.cfg.Self)] = r.cfg.Auth.TagVector(body)
		g.sentDrop = true
		r.resendGapFind(slot)
		r.maybeDecide(slot, g)
		return
	}
	w := wire.NewWriter(32)
	w.U8(kindQuery)
	w.Raw(queryBody(r.view, slot))
	r.Send(r.leaderNode(), w.Bytes())
}

func (r *Replica) resendGapFind(slot uint64) {
	body := gapFindBody(r.view, slot)
	w := wire.NewWriter(64)
	w.U8(kindGapFind)
	w.VarBytes(body)
	w.VarBytes(r.cfg.Auth.TagVector(body))
	r.Broadcast(w.Bytes())
}

// certSlot maps an ordering certificate to its log slot under the
// certificate's epoch.
func (r *Replica) certSlot(c *aom.OrderingCert) (uint64, bool) {
	start, ok := r.epochStart[c.Epoch]
	if !ok {
		return 0, false
	}
	return start + c.Seq, true
}

// verifyCert validates an ordering certificate against the
// verifier of its epoch.
func (r *Replica) verifyCert(c *aom.OrderingCert) bool {
	v := r.verifiers[c.Epoch]
	return v != nil && v.Verify(c) == nil
}

// --- query / query-reply -------------------------------------------------

func (r *Replica) onQuery(from transport.NodeID, body []byte) {
	rd := wire.NewReader(body)
	view := UnpackView(rd.U64())
	slot := rd.U64()
	if rd.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view {
		return
	}
	if slot == 0 || slot > r.log.High() {
		return // nothing to share yet
	}
	e, ok := r.log.Get(slot)
	if !ok {
		// Below the low watermark: the slot is final and its certificate
		// gone. Ship the stable checkpoint snapshot so the querier jumps
		// straight past the truncated region instead of timing out into a
		// view change.
		r.serveSnapshot(from, slot-1)
		return
	}
	if e.noOp || e.cert == nil {
		return // resolved as no-op; the gap commit will reach the querier
	}
	w := wire.NewWriter(256 + len(e.cert.Payload))
	w.U8(kindQueryReply)
	w.U64(view.Pack())
	w.U64(slot)
	w.VarBytes(e.cert.Marshal())
	r.Send(from, w.Bytes())
}

func (r *Replica) onQueryReply(body []byte) {
	rd := wire.NewReader(body)
	view := UnpackView(rd.U64())
	slot := rd.U64()
	certBytes := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	cert, err := aom.UnmarshalCert(certBytes)
	if err != nil {
		return
	}
	if r.status != StatusNormal || view != r.view || r.blockedOn != slot {
		return
	}
	// A gap-drop voter must wait for the agreement decision, not a
	// query-reply (§5.4).
	if g := r.gaps[slot]; g != nil && g.sentDrop {
		return
	}
	if !r.verifyCert(cert) {
		return
	}
	if s, ok := r.certSlot(cert); !ok || s != slot {
		return
	}
	r.fillSlot(slot, cert, nil)
}

// fillSlot writes the resolution of the blocked slot and resumes
// delivery processing. blockedOn must equal slot,
// which was the high watermark + 1 when the block was raised.
func (r *Replica) fillSlot(slot uint64, cert *aom.OrderingCert, gapCert *GapCert) {
	// State transfer may have filled the slot (and slots beyond it) while
	// the query or gap agreement was in flight; appending the resolution
	// now would land its payload at the wrong slot. The transferred
	// content is certificate-checked against the same sequence number, so
	// the late resolution only unblocks.
	if slot <= r.log.High() {
		r.unblock()
		return
	}
	if cert != nil {
		r.appendRequest(cert, nil)
	} else {
		r.appendEntry(&logEntry{noOp: true, epoch: r.view.Epoch, gapCert: gapCert})
		r.executeReady()
	}
	r.unblock()
}

func (r *Replica) unblock() {
	r.blockedOn = 0
	r.queryAttempts = 0
	buf := r.buffered
	r.buffered = nil
	for _, d := range buf {
		r.processDelivery(d) // re-buffers automatically if blocked again
	}
	// Sequence numbers consumed by the receiver whose deliveries were
	// lost (e.g. across a view change) surface here as fresh gaps.
	r.reconcileAOM()
}

// --- gap find / votes ----------------------------------------------------

func (r *Replica) onGapFind(pkt []byte) {
	rd := wire.NewReader(pkt)
	body := rd.VarBytes()
	tag := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	br := wire.NewReader(body)
	if !br.Prefix("gap-find") {
		return
	}
	view := UnpackView(br.U64())
	slot := br.U64()
	if br.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view {
		return
	}
	if !r.cfg.Auth.VerifyVector(view.LeaderIndex(r.cfg.N), body, tag) {
		return
	}
	if slot <= r.log.High() {
		e, ok := r.log.Get(slot)
		if !ok {
			return // truncated: final by stable checkpoint
		}
		if !e.noOp && e.cert != nil {
			w := wire.NewWriter(256 + len(e.cert.Payload))
			w.U8(kindGapRecv)
			w.U64(view.Pack())
			w.U64(slot)
			w.VarBytes(e.cert.Marshal())
			r.Send(r.leaderNode(), w.Bytes())
		}
		return
	}
	if r.blockedOn == slot {
		g := r.gapSlotFor(slot)
		g.sentDrop = true
		dropB := gapDropBody(view, uint32(r.cfg.Self), slot)
		w := wire.NewWriter(96)
		w.U8(kindGapDrop)
		w.U32(uint32(r.cfg.Self))
		w.VarBytes(dropB)
		w.VarBytes(r.cfg.Auth.TagVector(dropB))
		r.Send(r.leaderNode(), w.Bytes())
	}
}

func (r *Replica) onGapRecv(pkt []byte) {
	rd := wire.NewReader(pkt)
	view := UnpackView(rd.U64())
	slot := rd.U64()
	certBytes := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	cert, err := aom.UnmarshalCert(certBytes)
	if err != nil {
		return
	}
	if r.status != StatusNormal || view != r.view || !r.isLeader() {
		return
	}
	if !r.gapSlotInWindow(slot) {
		return
	}
	g := r.gapSlotFor(slot)
	if g.decided || g.recvCert != nil {
		return
	}
	if !r.verifyCert(cert) {
		return
	}
	if s, ok := r.certSlot(cert); !ok || s != slot {
		return
	}
	g.recvCert = cert
	r.maybeDecide(slot, g)
}

func (r *Replica) onGapDrop(pkt []byte) {
	rd := wire.NewReader(pkt)
	replica := rd.U32()
	body := rd.VarBytes()
	tag := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	br := wire.NewReader(body)
	if !br.Prefix("gap-drop") {
		return
	}
	view := UnpackView(br.U64())
	bodyReplica := br.U32()
	slot := br.U64()
	if br.Done() != nil || bodyReplica != replica {
		return
	}
	if r.status != StatusNormal || view != r.view || !r.isLeader() {
		return
	}
	if int(replica) >= r.cfg.N || !r.cfg.Auth.VerifyVector(int(replica), body, tag) {
		return
	}
	if !r.gapSlotInWindow(slot) {
		return
	}
	g := r.gapSlotFor(slot)
	if g.decided {
		return
	}
	g.drops[replica] = append([]byte(nil), tag...)
	r.maybeDecide(slot, g)
}

// maybeDecide broadcasts the leader's gap decision once it holds
// one ordering certificate or 2f+1 drop votes (§5.4).
func (r *Replica) maybeDecide(slot uint64, g *gapSlot) {
	if g.decided {
		return
	}
	var recv bool
	switch {
	case g.recvCert != nil:
		recv = true
	case len(g.drops) >= 2*r.cfg.F+1:
		recv = false
	default:
		return
	}
	g.decided = true
	body := gapDecisionBody(r.view, slot, recv)
	w := wire.NewWriter(512)
	w.U8(kindGapDecision)
	w.VarBytes(body)
	w.VarBytes(r.cfg.Auth.TagVector(body))
	if recv {
		w.VarBytes(g.recvCert.Marshal())
	} else {
		parts := make([]SignedPart, 0, len(g.drops))
		for rep, tag := range g.drops {
			parts = append(parts, SignedPart{Replica: rep, Tag: tag})
		}
		marshalParts(w, parts)
	}
	r.Broadcast(w.Bytes())
	// The leader adopts its own decision.
	r.acceptDecision(&gapDecision{view: r.view, slot: slot, recv: recv, cert: g.recvCert})
}

func (r *Replica) onGapDecision(pkt []byte) {
	rd := wire.NewReader(pkt)
	body := rd.VarBytes()
	tag := rd.VarBytes()
	br := wire.NewReader(body)
	if !br.Prefix("gap-decision") {
		return
	}
	view := UnpackView(br.U64())
	slot := br.U64()
	recv := br.Bool()
	if br.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view {
		return
	}
	if !r.cfg.Auth.VerifyVector(view.LeaderIndex(r.cfg.N), body, tag) {
		return
	}
	if !r.gapSlotInWindow(slot) {
		return
	}
	dec := &gapDecision{view: view, slot: slot, recv: recv}
	if recv {
		certBytes := rd.VarBytes()
		if rd.Done() != nil {
			return
		}
		cert, err := aom.UnmarshalCert(certBytes)
		if err != nil || !r.verifyCert(cert) {
			return
		}
		if s, ok := r.certSlot(cert); !ok || s != slot {
			return
		}
		dec.cert = cert
	} else {
		parts := unmarshalParts(rd)
		if rd.Done() != nil {
			return
		}
		if !r.validDropQuorum(view, slot, parts) {
			return
		}
	}
	r.acceptDecision(dec)
}

// validDropQuorum checks 2f+1 distinct, valid gap-drop votes.
func (r *Replica) validDropQuorum(view ViewID, slot uint64, parts []SignedPart) bool {
	seen := map[uint32]bool{}
	valid := 0
	for _, p := range parts {
		if int(p.Replica) >= r.cfg.N || seen[p.Replica] {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(p.Replica), gapDropBody(view, p.Replica, slot), p.Tag) {
			continue
		}
		seen[p.Replica] = true
		valid++
	}
	return valid >= 2*r.cfg.F+1
}

// acceptDecision stores a validated decision and broadcasts this
// replica's gap-prepare.
func (r *Replica) acceptDecision(dec *gapDecision) {
	g := r.gapSlotFor(dec.slot)
	if g.decision != nil {
		return
	}
	g.decision = dec
	if !g.sentPrepare {
		g.sentPrepare = true
		body := gapPrepareBody(dec.view, uint32(r.cfg.Self), dec.slot, dec.recv)
		tag := r.cfg.Auth.TagVector(body)
		g.prepares[dec.recv][uint32(r.cfg.Self)] = tag
		w := wire.NewWriter(96)
		w.U8(kindGapPrepare)
		w.U32(uint32(r.cfg.Self))
		w.U64(dec.view.Pack())
		w.U64(dec.slot)
		w.Bool(dec.recv)
		w.VarBytes(tag)
		r.Broadcast(w.Bytes())
	}
	r.maybePrepareCommit(dec.slot, g)
}

func (r *Replica) onGapPrepare(pkt []byte) {
	rd := wire.NewReader(pkt)
	replica := rd.U32()
	view := UnpackView(rd.U64())
	slot := rd.U64()
	recv := rd.Bool()
	tag := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view || int(replica) >= r.cfg.N {
		return
	}
	if !r.cfg.Auth.VerifyVector(int(replica), gapPrepareBody(view, replica, slot, recv), tag) {
		return
	}
	if !r.gapSlotInWindow(slot) {
		return
	}
	g := r.gapSlotFor(slot)
	g.prepares[recv][replica] = append([]byte(nil), tag...)
	r.maybePrepareCommit(slot, g)
}

// maybePrepareCommit sends gap-commit after 2f matching prepares
// plus a matching validated decision (§5.4).
func (r *Replica) maybePrepareCommit(slot uint64, g *gapSlot) {
	if g.sentCommit || g.decision == nil {
		return
	}
	recv := g.decision.recv
	if len(g.prepares[recv]) < 2*r.cfg.F {
		return
	}
	g.sentCommit = true
	body := gapCommitBody(g.decision.view, uint32(r.cfg.Self), slot, recv)
	tag := r.cfg.Auth.TagVector(body)
	g.commits[recv][uint32(r.cfg.Self)] = tag
	w := wire.NewWriter(96)
	w.U8(kindGapCommit)
	w.U32(uint32(r.cfg.Self))
	w.U64(g.decision.view.Pack())
	w.U64(slot)
	w.Bool(recv)
	w.VarBytes(tag)
	r.Broadcast(w.Bytes())
	r.maybeCommitGap(slot, g)
}

func (r *Replica) onGapCommit(pkt []byte) {
	rd := wire.NewReader(pkt)
	replica := rd.U32()
	view := UnpackView(rd.U64())
	slot := rd.U64()
	recv := rd.Bool()
	tag := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view || int(replica) >= r.cfg.N {
		return
	}
	if !r.cfg.Auth.VerifyVector(int(replica), gapCommitBody(view, replica, slot, recv), tag) {
		return
	}
	if !r.gapSlotInWindow(slot) {
		return
	}
	g := r.gapSlotFor(slot)
	g.commits[recv][replica] = append([]byte(nil), tag...)
	r.maybeCommitGap(slot, g)
}

// maybeCommitGap finalizes the slot after 2f+1 gap-commits.
func (r *Replica) maybeCommitGap(slot uint64, g *gapSlot) {
	if g.committed {
		return
	}
	var recv bool
	switch {
	case len(g.commits[true]) >= 2*r.cfg.F+1:
		recv = true
	case len(g.commits[false]) >= 2*r.cfg.F+1:
		recv = false
	default:
		return
	}
	// Committing requires this replica to know the decision content for
	// recv (the certificate); for drop the commits alone suffice.
	if recv && (g.decision == nil || g.decision.cert == nil) {
		return
	}
	g.committed = true
	g.committedRecv = recv
	if !recv {
		parts := make([]SignedPart, 0, len(g.commits[false]))
		for rep, tag := range g.commits[false] {
			parts = append(parts, SignedPart{Replica: rep, Tag: tag})
		}
		view := r.view
		if g.decision != nil {
			view = g.decision.view
		}
		g.gapCert = &GapCert{View: view, Slot: slot, Commits: parts}
	}
	r.gapAgreed++
	r.mGapAgree.Inc()
	var recvBit uint64
	if recv {
		recvBit = 1
	}
	r.Trace().Record(tkGapCommitted, slot, recvBit)
	r.applyCommittedGap(slot, g)
}

// applyCommittedGap applies a committed gap decision to the log.
func (r *Replica) applyCommittedGap(slot uint64, g *gapSlot) {
	logHigh := r.log.High()
	switch {
	case r.blockedOn == slot && slot == logHigh+1:
		if g.committedRecv {
			r.fillSlot(slot, g.decision.cert, nil)
		} else {
			r.fillSlot(slot, nil, g.gapCert)
		}
	case slot <= logHigh:
		e, ok := r.log.Get(slot)
		if !ok {
			return // below the low watermark: finalized by checkpoint
		}
		if !g.committedRecv && !e.noOp {
			// We speculatively executed a request that the group agreed
			// to skip: roll back, rewrite as no-op, re-execute (§5.4).
			r.rollbackTo(slot)
			r.log.Set(slot, &logEntry{noOp: true, epoch: e.epoch, gapCert: g.gapCert})
			r.recomputeHashes(slot)
			r.executeReady()
		}
		// recv decisions match what we already hold (aom ordering).
	default:
		// We have not reached the slot yet; the stored committed state
		// applies when the delivery or drop-notification arrives.
	}
}
