package neobft

import (
	"sort"
	"time"

	"neobft/internal/aom"
	"neobft/internal/replica"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// vcState tracks an in-progress view change (§5.5, §B.1).
type vcState struct {
	target  ViewID
	started time.Time
	// msgs collects validated view-change messages (leader of the target
	// view), keyed by sender.
	msgs map[uint32]*viewChangeMsg
	// ownMsg is this replica's own view-change message.
	ownMsg *viewChangeMsg
	// wantEpoch, when nonzero, is the epoch whose certificate must form
	// before the view change completes.
	wantEpoch uint32
}

// startViewChange begins a view change toward target.
func (r *Replica) startViewChange(target ViewID) {
	if !r.view.Less(target) {
		return
	}
	r.status = StatusViewChange
	r.blockedOn = 0
	// Buffered aom deliveries are kept: they resume (or are re-resolved
	// as gaps) once the new view starts.
	r.vc = &vcState{target: target, started: time.Now(), msgs: map[uint32]*viewChangeMsg{}}

	msg := &viewChangeMsg{
		Replica:    uint32(r.cfg.Self),
		CurView:    r.view,
		NewView:    target,
		EpochCerts: r.epochCertList(),
		SyncPoint:  r.syncPoint,
		Entries:    r.wireEntries(r.syncPoint),
	}
	msg.Tag = r.cfg.Auth.TagVector(msg.body())
	r.vc.ownMsg = msg
	if target.LeaderIndex(r.cfg.N) == r.cfg.Self {
		r.vc.msgs[uint32(r.cfg.Self)] = msg
		// Adopt any view-change messages that arrived before we joined.
		for rep, m := range r.pendingVC[target] {
			if r.validateViewChange(m) {
				r.vc.msgs[rep] = m
			}
		}
	}
	delete(r.pendingVC, target)
	r.Broadcast(msg.marshal())
	r.maybeStartView()
}

func (r *Replica) epochCertList() []EpochCert {
	out := make([]EpochCert, 0, len(r.epochCerts))
	for _, c := range r.epochCerts {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// wireEntries serializes log slots above base. Slots at or below
// the low watermark are truncated and cannot be served; the suffix
// starts at the live window.
func (r *Replica) wireEntries(base uint64) []WireEntry {
	if base < r.log.Low() {
		base = r.log.Low()
	}
	out := make([]WireEntry, 0, r.log.High()-base)
	r.log.Ascend(base+1, func(slot uint64, e *logEntry) bool {
		out = append(out, WireEntry{Slot: slot, Epoch: e.epoch, NoOp: e.noOp, Cert: e.cert, Gap: e.gapCert})
		return true
	})
	return out
}

// onViewChange processes a ⟨VIEW-CHANGE⟩ message.
func (r *Replica) onViewChange(pkt []byte) {
	msg, err := unmarshalViewChange(pkt)
	if err != nil {
		return
	}
	if int(msg.Replica) >= r.cfg.N {
		return
	}
	if !r.cfg.Auth.VerifyVector(int(msg.Replica), msg.body(), msg.Tag) {
		return
	}
	if !r.view.Less(msg.NewView) {
		return // old view change
	}
	// Pool the message per target view.
	if r.pendingVC == nil {
		r.pendingVC = map[ViewID]map[uint32]*viewChangeMsg{}
	}
	pool := r.pendingVC[msg.NewView]
	if pool == nil {
		pool = map[uint32]*viewChangeMsg{}
		r.pendingVC[msg.NewView] = pool
	}
	pool[msg.Replica] = msg

	// Join the view change once f+1 distinct replicas demand a view at
	// least this new (standard PBFT join rule: at least one correct
	// replica suspects a failure).
	inVC := r.status == StatusViewChange && r.vc != nil && !r.vc.target.Less(msg.NewView)
	if !inVC {
		if len(pool) < r.cfg.F+1 {
			return
		}
		if msg.NewView.Epoch > r.view.Epoch {
			// The initiators already reported the sequencer; mirror the
			// failover so we can derive the new epoch's credentials.
			view, err := r.cfg.Svc.View(r.cfg.Group)
			if err != nil || view.Epoch < msg.NewView.Epoch {
				if _, err := r.cfg.Svc.Failover(r.cfg.Group, r.view.Epoch); err != nil {
					return
				}
			}
		}
		r.startViewChange(msg.NewView)
	}
	if r.vc == nil || r.vc.target != msg.NewView {
		return
	}
	if r.vc.target.LeaderIndex(r.cfg.N) != r.cfg.Self {
		return // only the new leader collects
	}
	if !r.validateViewChange(msg) {
		return
	}
	r.vc.msgs[msg.Replica] = msg
	r.maybeStartView()
}

// validateViewChange checks the log inside a view-change message:
// every entry holds a valid ordering certificate or a no-op supported by
// a gap certificate, and entries are consecutive above the sync point
// (§5.5 log validity).
func (r *Replica) validateViewChange(m *viewChangeMsg) bool {
	next := m.SyncPoint + 1
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Slot != next {
			return false
		}
		next++
		if e.NoOp {
			if e.Gap == nil || !r.validGapCert(e.Gap, e.Slot) {
				return false
			}
			continue
		}
		if e.Cert == nil || !r.verifyCert(e.Cert) {
			return false
		}
		start, ok := r.epochStartFor(e.Epoch, m)
		if !ok || start+e.Cert.Seq != e.Slot || e.Cert.Epoch != e.Epoch {
			return false
		}
	}
	return true
}

// epochStartFor resolves an epoch's starting slot from local state
// or the message's epoch certificates.
func (r *Replica) epochStartFor(epoch uint32, m *viewChangeMsg) (uint64, bool) {
	if s, ok := r.epochStart[epoch]; ok {
		return s, true
	}
	for i := range m.EpochCerts {
		c := &m.EpochCerts[i]
		if c.Epoch == epoch && r.validEpochCert(c) {
			return c.Slot, true
		}
	}
	return 0, false
}

// validGapCert verifies a no-op's gap certificate: 2f+1 distinct
// valid gap-commit authenticators with decision drop.
func (r *Replica) validGapCert(g *GapCert, slot uint64) bool {
	if g.Slot != slot {
		return false
	}
	seen := map[uint32]bool{}
	valid := 0
	for _, p := range g.Commits {
		if int(p.Replica) >= r.cfg.N || seen[p.Replica] {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(p.Replica), gapCommitBody(g.View, p.Replica, slot, false), p.Tag) {
			continue
		}
		seen[p.Replica] = true
		valid++
	}
	return valid >= 2*r.cfg.F+1
}

// validEpochCert verifies an epoch certificate: 2f+1 distinct valid
// epoch-start authenticators agreeing on the start slot.
func (r *Replica) validEpochCert(c *EpochCert) bool {
	seen := map[uint32]bool{}
	valid := 0
	for _, p := range c.Starts {
		if int(p.Replica) >= r.cfg.N || seen[p.Replica] {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(p.Replica), epochStartBody(c.Epoch, p.Replica, c.Slot), p.Tag) {
			continue
		}
		seen[p.Replica] = true
		valid++
	}
	return valid >= 2*r.cfg.F+1
}

// maybeStartView lets the new leader broadcast ⟨VIEW-START⟩ once it
// holds 2f+1 view-change messages (§B.1).
func (r *Replica) maybeStartView() {
	vc := r.vc
	if vc == nil || vc.target.LeaderIndex(r.cfg.N) != r.cfg.Self {
		return
	}
	if len(vc.msgs) < 2*r.cfg.F+1 {
		return
	}
	msgs := make([]*viewChangeMsg, 0, len(vc.msgs))
	raw := make([][]byte, 0, len(vc.msgs))
	for _, m := range vc.msgs {
		msgs = append(msgs, m)
		raw = append(raw, m.marshal()[1:]) // strip envelope kind
	}
	vs := &viewStartMsg{NewView: vc.target, Msgs: raw}
	vs.Tag = r.cfg.Auth.TagVector(vs.body())
	r.Broadcast(vs.marshal())
	r.enterView(vc.target, msgs)
}

// onViewStart processes a ⟨VIEW-START⟩ from the new leader.
func (r *Replica) onViewStart(pkt []byte) {
	vs, err := unmarshalViewStart(pkt)
	if err != nil {
		return
	}
	if !r.view.Less(vs.NewView) {
		return
	}
	leader := vs.NewView.LeaderIndex(r.cfg.N)
	if !r.cfg.Auth.VerifyVector(leader, vs.body(), vs.Tag) {
		return
	}
	// Validate the 2f+1 enclosed view-change messages.
	msgs := make([]*viewChangeMsg, 0, len(vs.Msgs))
	seen := map[uint32]bool{}
	for _, rawMsg := range vs.Msgs {
		m, err := unmarshalViewChange(rawMsg)
		if err != nil {
			continue
		}
		if int(m.Replica) >= r.cfg.N || seen[m.Replica] || m.NewView != vs.NewView {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(m.Replica), m.body(), m.Tag) {
			continue
		}
		if !r.validateViewChange(m) {
			continue
		}
		seen[m.Replica] = true
		msgs = append(msgs, m)
	}
	if len(msgs) < 2*r.cfg.F+1 {
		return
	}
	// Make sure the config service has moved if this starts a new epoch.
	if vs.NewView.Epoch > r.view.Epoch {
		if view, err := r.cfg.Svc.View(r.cfg.Group); err != nil || view.Epoch < vs.NewView.Epoch {
			r.cfg.Svc.Failover(r.cfg.Group, r.view.Epoch)
		}
	}
	r.enterView(vs.NewView, msgs)
}

// enterView merges the logs and installs the new view (§B.1).
func (r *Replica) enterView(target ViewID, msgs []*viewChangeMsg) {
	merged, base, ok := r.mergeLogs(msgs)
	if !ok {
		return
	}
	r.adoptMerged(base, merged, msgs)

	epochSwitch := target.Epoch > r.maxInstalledEpoch()
	r.view = target
	if r.vc == nil || r.vc.target != target {
		r.vc = &vcState{target: target, started: time.Now()}
	}
	if epochSwitch {
		// Broadcast ⟨EPOCH-START, e′, log-slot-num⟩ and wait for the
		// epoch certificate before processing the new epoch (§B.1).
		r.vc.wantEpoch = target.Epoch
		slot := r.log.High()
		body := epochStartBody(target.Epoch, uint32(r.cfg.Self), slot)
		tag := r.cfg.Auth.TagVector(body)
		r.recordEpochStart(target.Epoch, uint32(r.cfg.Self), slot, tag)
		w := wire.NewWriter(96)
		w.U8(kindEpochStart)
		w.U32(uint32(r.cfg.Self))
		w.U32(target.Epoch)
		w.U64(slot)
		w.VarBytes(tag)
		r.Broadcast(w.Bytes())
		r.maybeFinishEpochStart()
		return
	}
	r.finishViewChange()
}

func (r *Replica) maxInstalledEpoch() uint32 {
	var maxE uint32
	for e := range r.epochStart {
		if e > maxE {
			maxE = e
		}
	}
	return maxE
}

// mergeLogs implements the §B.1 merge over 2f+1 validated
// view-change logs, returning the merged entries above the base (the
// smallest sync point among the messages).
func (r *Replica) mergeLogs(msgs []*viewChangeMsg) ([]WireEntry, uint64, bool) {
	if len(msgs) == 0 {
		return nil, 0, false
	}
	base := msgs[0].SyncPoint
	for _, m := range msgs {
		if m.SyncPoint < base {
			base = m.SyncPoint
		}
	}
	// (1) Find the largest epoch supported by an epoch certificate.
	maxEpoch := uint32(1)
	epochStarts := map[uint32]uint64{1: 0}
	for e, s := range r.epochStart {
		epochStarts[e] = s
		if e > maxEpoch {
			maxEpoch = e
		}
	}
	for _, m := range msgs {
		for i := range m.EpochCerts {
			c := &m.EpochCerts[i]
			if _, known := epochStarts[c.Epoch]; !known {
				if !r.validEpochCert(c) {
					continue
				}
				epochStarts[c.Epoch] = c.Slot
			}
			if c.Epoch > maxEpoch {
				maxEpoch = c.Epoch
			}
		}
	}
	// Any entry's epoch also counts as "started" evidence if certified.
	// (2)+(3) Pick the prefix donor and the longest log in maxEpoch.
	var donor *viewChangeMsg // longest log that has started maxEpoch
	for _, m := range msgs {
		started := false
		for _, e := range m.Entries {
			if e.Epoch == maxEpoch {
				started = true
				break
			}
		}
		if !started && epochStarts[maxEpoch] <= m.SyncPoint+uint64(len(m.Entries)) {
			// The log reaches the epoch's start position (it may simply
			// have no entries in the epoch yet).
			started = true
		}
		if !started {
			continue
		}
		if donor == nil || lastSlot(m) > lastSlot(donor) {
			donor = m
		}
	}
	if donor == nil {
		// No log has started the newest certified epoch; fall back to the
		// longest log overall.
		for _, m := range msgs {
			if donor == nil || lastSlot(m) > lastSlot(donor) {
				donor = m
			}
		}
	}
	merged := map[uint64]WireEntry{}
	for _, e := range donor.Entries {
		merged[e.Slot] = e
	}
	// (4) Overlay no-ops (with valid gap certificates) from every log.
	for _, m := range msgs {
		for _, e := range m.Entries {
			if e.NoOp {
				merged[e.Slot] = e
			}
		}
	}
	// Build a consecutive suffix above base.
	out := make([]WireEntry, 0, len(merged))
	for slot := base + 1; ; slot++ {
		e, ok := merged[slot]
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out, base, true
}

func lastSlot(m *viewChangeMsg) uint64 {
	if len(m.Entries) == 0 {
		return m.SyncPoint
	}
	return m.Entries[len(m.Entries)-1].Slot
}

// adoptMerged replaces the speculative log suffix with the merged
// entries, rolling back and re-executing application state (§5.2).
func (r *Replica) adoptMerged(base uint64, merged []WireEntry, msgs []*viewChangeMsg) {
	// Adopt epoch certificates carried in the messages.
	for _, m := range msgs {
		for i := range m.EpochCerts {
			c := &m.EpochCerts[i]
			if _, ok := r.epochCerts[c.Epoch]; !ok && r.validEpochCert(c) {
				cc := *c
				r.epochCerts[c.Epoch] = &cc
				r.epochStart[c.Epoch] = c.Slot
			}
		}
	}
	keep := r.syncPoint
	if keep < base {
		keep = base
	}
	// Roll back all speculative execution above the committed prefix.
	r.rollbackTo(keep + 1)
	r.log.TruncateFrom(keep + 1)
	for _, e := range merged {
		if e.Slot <= keep {
			continue
		}
		le := &logEntry{}
		if !e.NoOp && e.Cert != nil {
			le = r.checkRequest(e.Cert.Payload)
			le.digest = wire.Digest(e.Cert.Payload)
		}
		le.noOp, le.cert, le.epoch, le.gapCert = e.NoOp, e.Cert, e.Epoch, e.Gap
		r.appendEntry(le)
	}
	r.recomputeHashes(keep + 1)
	r.executeReady()
}

// finishViewChange completes the transition into the target view.
func (r *Replica) finishViewChange() {
	r.status = StatusNormal
	var vcStart time.Time
	if r.vc != nil {
		vcStart = r.vc.started
	}
	r.vc = nil
	r.gaps = map[uint64]*gapSlot{}
	r.blockedOn = 0
	r.queryAttempts = 0
	r.pendingClientReqs = map[replica.ReqKey]*heldReq{}
	for v := range r.pendingVC {
		if !r.view.Less(v) {
			delete(r.pendingVC, v)
		}
	}
	r.viewChanges++
	r.mViewChg.Inc()
	r.Trace().Record(tkViewChange, uint64(r.view.Epoch), uint64(r.view.Leader))
	if !vcStart.IsZero() {
		// View changes are rare-path: recorded on the causal timeline
		// regardless of sampling.
		r.Runtime().Tracer().Always(tracing.PhaseViewChange, vcStart, time.Since(vcStart),
			uint64(r.view.Epoch), uint64(r.view.Leader), "neobft view change")
	}
	// Re-process deliveries buffered across the view change and re-raise
	// any aom sequence numbers that were consumed before the view change
	// but whose slots did not survive the log merge: they become gaps the
	// new leader resolves (§5.4).
	buf := r.buffered
	r.buffered = nil
	for _, d := range buf {
		r.processDelivery(d)
	}
	r.reconcileAOM()
}

// reconcileAOM compares the aom receiver's consumed sequence range
// with the log and starts gap resolution for consumed-but-missing slots.
func (r *Replica) reconcileAOM() {
	if r.status != StatusNormal || r.blockedOn != 0 {
		return
	}
	if r.recv.Epoch() != r.view.Epoch {
		return
	}
	consumed := r.epochStart[r.view.Epoch] + r.recv.NextSeq() - 1
	if consumed > r.log.High() {
		r.startGapResolution(r.log.High() + 1)
	}
}

// --- epoch start ----------------------------------------------------------

// epochStartVotes accumulates ⟨EPOCH-START⟩ messages per epoch.
type epochVote struct {
	slot uint64
	tag  []byte
}

func (r *Replica) recordEpochStart(epoch uint32, replica uint32, slot uint64, tag []byte) {
	if r.epochVotes == nil {
		r.epochVotes = map[uint32]map[uint32]epochVote{}
	}
	byRep := r.epochVotes[epoch]
	if byRep == nil {
		byRep = map[uint32]epochVote{}
		r.epochVotes[epoch] = byRep
	}
	byRep[replica] = epochVote{slot: slot, tag: append([]byte(nil), tag...)}
}

func (r *Replica) onEpochStart(pkt []byte) {
	rd := wire.NewReader(pkt)
	replica := rd.U32()
	epoch := rd.U32()
	slot := rd.U64()
	tag := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	if int(replica) >= r.cfg.N {
		return
	}
	if !r.cfg.Auth.VerifyVector(int(replica), epochStartBody(epoch, replica, slot), tag) {
		return
	}
	r.recordEpochStart(epoch, replica, slot, tag)
	r.maybeFinishEpochStart()
}

// maybeFinishEpochStart installs the new epoch once 2f+1 matching
// epoch-starts form the epoch certificate (§B.1).
func (r *Replica) maybeFinishEpochStart() {
	if r.vc == nil || r.vc.wantEpoch == 0 {
		return
	}
	epoch := r.vc.wantEpoch
	mySlot := r.log.High()
	votes := r.epochVotes[epoch]
	parts := make([]SignedPart, 0, len(votes))
	for rep, v := range votes {
		if v.slot == mySlot {
			parts = append(parts, SignedPart{Replica: rep, Tag: v.tag})
		}
	}
	if len(parts) < 2*r.cfg.F+1 {
		return
	}
	cert := &EpochCert{Epoch: epoch, Slot: mySlot, Starts: parts}
	r.epochCerts[epoch] = cert
	r.epochStart[epoch] = mySlot
	r.mEpochChg.Inc()
	r.Trace().Record(tkEpochStart, uint64(epoch), mySlot)

	// Install the new epoch's aom credentials.
	view, err := r.cfg.Svc.View(r.cfg.Group)
	installed := err == nil && view.Epoch == epoch
	if installed {
		ep := r.cfg.Svc.EpochConfigFor(view, r.cfg.Self)
		r.recv.InstallEpoch(ep)
		r.installVerifier(epoch, ep)
	}
	delete(r.epochVotes, epoch)
	held := r.pendingClientReqs // finishViewChange starts a new map
	r.finishViewChange()
	if installed && r.isLeader() {
		r.resubmit(held, view.Sequencer)
	}
}

// resubmit sends the new sequencer every request held across the
// epoch change that is still unexecuted, so a client that already retried
// by unicast need not retry again. The request carries the client's MAC
// vector and the client table absorbs duplicates, so forwarding is safe.
// Requests go in ascending (client, reqID) order: the client table keeps
// one id per client, so a newer request sequenced first would make an
// older one stale.
func (r *Replica) resubmit(held map[replica.ReqKey]*heldReq, seq transport.NodeID) {
	keys := make([]replica.ReqKey, 0, len(held))
	for k := range held {
		if fresh, _ := r.Table.Check(k.Client, k.ReqID); fresh {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.Client < b.Client || a.Client == b.Client && a.ReqID < b.ReqID
	})
	s := aom.NewSender(r.cfg.Conn, r.cfg.Group, seq)
	for _, k := range keys {
		s.Send(held[k].req.Marshal())
	}
}
