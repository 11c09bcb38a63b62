package neobft

import (
	"sort"

	"neobft/internal/replica"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// State synchronization (§B.2), built on the shared seqlog checkpointer:
// when execution crosses a CheckpointInterval boundary at slot s, the
// replica captures a snapshot of its application + client-table state,
// folds H(s ‖ log-hash ‖ state-digest) into a checkpoint digest, and
// broadcasts ⟨SYNC, s, log-hash, state-digest, drops⟩_σi (drops carries
// gap certificates for no-ops above the previous checkpoint). 2f+1
// matching votes form a stable checkpoint certificate: the sync point
// advances, speculative undo state is released, gap bookkeeping is
// garbage-collected, and the log is truncated below the new low
// watermark. A replica that discovers a stable certificate beyond its
// own log fetches the snapshot plus the log suffix from the leader
// instead of replaying from slot 1.

// syncHorizon is the highest slot for which this replica accepts
// sync votes or gap-agreement state: one interval above the local high
// watermark. A Byzantine replica claiming far-future slots would
// otherwise plant per-slot state that is never garbage-collected.
func (r *Replica) syncHorizon() uint64 {
	return r.log.High() + uint64(r.cfg.CheckpointInterval)
}

// captureCheckpoint runs when execution crosses an interval
// boundary: capture the snapshot, vote, and broadcast the sync message.
func (r *Replica) captureCheckpoint(slot uint64) {
	e, ok := r.log.Get(slot)
	if !ok {
		return
	}
	w := wire.NewWriter(192)
	w.U8(kindSync)
	step, ok := r.ckpt.Capture(w, slot, r.Capture(), e.logHash)
	if !ok {
		return
	}
	// Trailer: gap certificates for no-ops above the current sync point.
	var drops []*GapCert
	r.log.Ascend(r.syncPoint+1, func(s uint64, le *logEntry) bool {
		if s > slot {
			return false
		}
		if le.noOp && le.gapCert != nil {
			drops = append(drops, le.gapCert)
		}
		return true
	})
	w.U32(uint32(len(drops)))
	for _, g := range drops {
		g.marshal(w)
	}
	r.Broadcast(w.Bytes())
	r.step(step)
}

func (r *Replica) onSync(pkt []byte) {
	rd := wire.NewReader(pkt)
	v, ok := r.ckpt.ReadVote(rd)
	nDrops := rd.U32()
	if !ok || rd.Err() != nil || nDrops > 1<<16 {
		return
	}
	drops := make([]*GapCert, nDrops)
	for i := range drops {
		drops[i] = unmarshalGapCert(rd)
	}
	if rd.Done() != nil {
		return
	}
	// Checkpoint votes are view-independent; only refuse them while the
	// log is in flux during a view change.
	if r.status != StatusNormal {
		return
	}
	if v.Slot == 0 || v.Slot%uint64(r.cfg.CheckpointInterval) != 0 || v.Slot <= r.syncPoint {
		return
	}
	// Byzantine bounding: refuse votes for slots far beyond anything this
	// replica has appended, before spending a MAC check on them.
	if v.Slot > r.syncHorizon() {
		r.mSyncReject.Inc()
		return
	}
	if !r.ckpt.VerifyVote(v) {
		return
	}
	// Apply certified no-ops we may have missed (§B.2): a valid gap
	// certificate overwrites the slot with a no-op.
	for _, g := range drops {
		r.applySyncDrop(g)
	}
	r.step(r.ckpt.Add(v, r.syncHorizon()))
}

// applySyncDrop installs a gap-certified no-op learned through a
// sync message.
func (r *Replica) applySyncDrop(g *GapCert) {
	slot := g.Slot
	if slot == 0 || slot <= r.syncPoint {
		return
	}
	if slot > r.syncHorizon() {
		return
	}
	if !r.validGapCert(g, slot) {
		return
	}
	if e, ok := r.log.Get(slot); ok {
		if e.noOp {
			if e.gapCert == nil {
				e.gapCert = g
			}
			return
		}
		// We executed a request the group committed as a no-op.
		r.rollbackTo(slot)
		r.log.Set(slot, &logEntry{noOp: true, epoch: e.epoch, gapCert: g})
		r.recomputeHashes(slot)
		r.executeReady()
		return
	}
	if slot <= r.log.High() {
		return // below the low watermark: already final
	}
	// Remember for when the log reaches the slot.
	gs := r.gapSlotFor(slot)
	if !gs.committed {
		gs.committed = true
		gs.committedRecv = false
		gs.gapCert = g
	}
}

// step acts on a vote. When our own checkpoint became stable the
// sync point advances, speculative bookkeeping below it is released, and
// the log is truncated with the slot's chain hash as the new base. When
// the quorum checkpointed a state we do not hold (we are behind, or our
// speculative state diverged) we fetch the committed state from the
// leader.
func (r *Replica) step(s seqlog.Step) {
	if s.Stable != 0 {
		r.syncPoint = s.Stable
		r.mSyncAdv.Inc()
		r.Trace().Record(tkSyncPoint, s.Stable, 0)
		r.pruneFinalized(s.Stable)
		r.baseHash = r.ckpt.Stable().Extra[0]
		seqlog.Truncate(r.ckpt, &r.log, s.Stable)
		r.SetWindow(r.log.Low(), r.log.High())
	}
	if s.Fetch {
		r.requestState()
	}
}

// pruneFinalized releases speculative bookkeeping for slots at or
// below the new sync point.
func (r *Replica) pruneFinalized(slot uint64) {
	// Undo records below the sync point can never be rolled back.
	keep := r.undoStack[:0]
	for _, u := range r.undoStack {
		if u.slot > slot {
			keep = append(keep, u)
		}
	}
	r.undoStack = keep
	for s := range r.gaps {
		if s <= slot {
			delete(r.gaps, s)
		}
	}
}

// --- crash-restart persistence --------------------------------------------

// Persist captures the replica's durable recovery state: the view, the
// epoch-start table (needed to map aom sequence numbers back to log
// slots), and the latest stable checkpoint (certificate, chain hash,
// snapshot). A replica restarted with this blob (Config.Restore)
// resumes with its log window at the checkpoint slot, its aom receiver
// skipped past the checkpointed sequence numbers, and catches up on
// later slots through gap resolution / state transfer. Nil means no
// checkpoint is stable yet: a restart recovers entirely from peers via
// snapshot state transfer (a cold restart).
func (r *Replica) Persist() []byte { return r.Save().Blob() }

// Save captures on the loop what Persist encodes; the snapshot is
// encoded off it.
func (r *Replica) Save() seqlog.Saved { return replica.Read(r.Core, r.save) }

func (r *Replica) save() seqlog.Saved {
	if r.ckpt.Stable() == nil {
		return seqlog.Saved{}
	}
	epochs := make([]uint32, 0, len(r.epochStart))
	for e := range r.epochStart {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	w := wire.NewWriter(12 + 12*len(epochs))
	w.U64(r.view.Pack())
	w.U32(uint32(len(epochs)))
	for _, e := range epochs {
		w.U32(e)
		w.U64(r.epochStart[e])
	}
	return r.ckpt.Save(w.Bytes())
}

// restoreFromPersist boots from a Persist blob. Called from New after
// the receiver exists but before the runtime starts. The blob is only
// honoured when its view's epoch matches the epoch the receiver was
// configured with by the configuration service: a checkpoint persisted
// under a superseded sequencer epoch cannot seed the current ordered
// stream, so the replica falls back to a cold start and recovers via
// snapshot state transfer instead.
func (r *Replica) restoreFromPersist(blob []byte) {
	rd := wire.NewReader(blob)
	view := UnpackView(rd.U64())
	nEpochs := rd.U32()
	if rd.Err() != nil || nEpochs > 1<<16 {
		return
	}
	starts := make(map[uint32]uint64, nEpochs)
	for i := uint32(0); i < nEpochs; i++ {
		e := rd.U32()
		starts[e] = rd.U64()
	}
	cp := r.ckpt.Read(rd)
	if cp == nil || view.Epoch != r.recv.Epoch() {
		return // malformed, or a superseded epoch: cold-start and fetch state from peers
	}
	if !r.install(cp) {
		return
	}
	r.view = view
	r.epochStart = starts
	// Resume the aom stream where the checkpoint left off: sequence
	// numbers are per-epoch, so the receiver skips past the slots the
	// checkpoint already covers in the current epoch.
	if start, ok := starts[view.Epoch]; ok && cp.Slot >= start {
		r.recv.SkipTo(cp.Slot - start)
	}
}

// install adopts a checkpoint wholesale if it checks out: the log
// restarts at its slot, with its chain hash as the base, and the
// snapshot replaces the executed state. The shared tail of snapshot
// state transfer and crash-restart recovery.
func (r *Replica) install(cp *seqlog.Checkpoint) bool {
	if !r.ckpt.Install(cp, r.Core) {
		return false
	}
	r.log.Reset(cp.Slot)
	r.baseHash = cp.Extra[0]
	r.specExecuted = cp.Slot
	r.syncPoint = cp.Slot
	r.SetWindow(r.log.Low(), r.log.High())
	return true
}

// --- state transfer -------------------------------------------------------

// requestState asks the leader for committed state beyond our
// tail: the reply is either the log suffix above our high watermark or,
// when we are below the leader's low watermark, a snapshot.
func (r *Replica) requestState() {
	r.mStateXfer.Inc()
	r.Trace().Record(tkStateXfer, r.log.High(), 0)
	w := wire.NewWriter(24)
	w.U8(kindStateRequest)
	w.U64(r.view.Pack())
	w.U64(r.log.High())
	r.Send(r.leaderNode(), w.Bytes())
}

func (r *Replica) onStateRequest(from transport.NodeID, body []byte) {
	rd := wire.NewReader(body)
	view := UnpackView(rd.U64())
	haveLen := rd.U64()
	if rd.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view {
		return
	}
	if haveLen >= r.log.High() {
		return
	}
	if haveLen < r.log.Low() {
		// The requester's log ends below our low watermark; those slots
		// are truncated. Ship the stable checkpoint snapshot instead — the
		// requester follows up for the suffix above it.
		r.serveSnapshot(from, haveLen)
		return
	}
	entries := r.wireEntries(haveLen)
	w := wire.NewWriter(1024)
	w.U8(kindStateReply)
	w.U64(r.view.Pack())
	marshalEntries(w, entries)
	r.Send(from, w.Bytes())
}

// serveSnapshot ships the stable checkpoint snapshot to a replica
// whose log ends at have, below our low watermark. The certificate
// inside binds the snapshot digest, so the transfer carries its own
// proof.
func (r *Replica) serveSnapshot(to transport.NodeID, have uint64) {
	w := wire.NewWriter(9)
	w.U8(kindStateSnapshot)
	w.U64(r.view.Pack())
	if pkt := r.ckpt.Serve(w.Bytes(), have); pkt != nil {
		r.Send(to, pkt)
	}
}

func (r *Replica) onStateReply(body []byte) {
	rd := wire.NewReader(body)
	view := UnpackView(rd.U64())
	entries, err := unmarshalEntries(rd)
	if err != nil || rd.Done() != nil {
		return
	}
	if r.status != StatusNormal || view != r.view {
		return
	}
	for _, e := range entries {
		slot := r.log.High() + 1
		if e.Slot < slot {
			continue
		}
		if e.Slot > slot {
			break // non-contiguous; stop
		}
		if e.NoOp {
			if e.Gap == nil || !r.validGapCert(e.Gap, e.Slot) {
				break
			}
			r.appendEntry(&logEntry{noOp: true, epoch: e.Epoch, gapCert: e.Gap})
			continue
		}
		if e.Cert == nil || !r.verifyCert(e.Cert) {
			break
		}
		if s, ok := r.certSlot(e.Cert); !ok || s != e.Slot {
			break
		}
		le := r.checkRequest(e.Cert.Payload)
		le.cert, le.epoch, le.digest = e.Cert, e.Epoch, wire.Digest(e.Cert.Payload)
		r.appendEntry(le)
	}
	r.executeReady()
}

// onStateSnapshot installs a snapshot-based state transfer: a stable
// checkpoint certificate, the chain hash at its slot, and the snapshot
// bytes. The certificate's 2f+1 authenticated votes bind the snapshot
// digest, so the snapshot needs no further trust in the sender.
func (r *Replica) onStateSnapshot(body []byte) {
	rd := wire.NewReader(body)
	view := UnpackView(rd.U64())
	cp := r.ckpt.Read(rd)
	if cp == nil {
		return
	}
	if r.status != StatusNormal || view != r.view {
		return
	}
	if cp.Slot <= r.syncPoint || cp.Slot <= r.log.High() {
		return // nothing a snapshot would teach us
	}
	if !r.install(cp) {
		return
	}
	// The snapshot replaced speculative state: nothing below it can be
	// rolled back any more.
	r.undoStack = nil
	r.pruneFinalized(cp.Slot)
	r.Trace().Record(tkStateXfer, cp.Slot, 1)

	// Resume: drop the blocked-slot marker (it referred to a slot now
	// below the checkpoint or will be re-raised), re-process buffered
	// deliveries, and fetch the suffix above the checkpoint.
	r.blockedOn = 0
	r.queryAttempts = 0
	buf := r.buffered
	r.buffered = nil
	for _, d := range buf {
		r.processDelivery(d)
	}
	r.requestState()
}
