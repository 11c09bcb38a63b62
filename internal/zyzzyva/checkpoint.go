package zyzzyva

import (
	"neobft/internal/replica"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Zyzzyva checkpoints (Kotla et al. §4.4) over the shared seqlog
// checkpointer. Every CheckpointInterval batches each replica snapshots
// its state (application plus client table), broadcasts a vote over
// ⟨seq, history, state-digest⟩, and 2f+1 matching votes form a stable
// certificate. Stability truncates the ordered-batch log below the
// checkpoint, bounding replica memory; the history hash travels inside
// the checkpoint digest so a replica installing a snapshot resumes the
// speculative hash chain from the certified point. A replica fetches the
// stable snapshot when the primary orders beyond its window or when f+1
// replicas vote beyond it.

// captureCheckpoint runs after executing an interval boundary.
func (r *Replica) captureCheckpoint(seq uint64) {
	w := wire.NewWriter(160)
	w.U8(kindCheckpoint)
	if step, ok := r.ckpt.Capture(w, seq, r.Capture(), r.history); ok {
		r.Broadcast(w.Bytes())
		r.step(step)
	}
}

func (r *Replica) onCheckpoint(v seqlog.Vote) {
	if v.Slot%uint64(r.cfg.CheckpointInterval) == 0 {
		r.step(r.ckpt.Add(v, r.horizon()))
	}
}

// step truncates below a checkpoint of ours that became stable, or
// fetches the snapshot the group is ahead with.
func (r *Replica) step(s seqlog.Step) {
	if s.Stable != 0 {
		seqlog.Truncate(r.ckpt, &r.log, s.Stable)
		r.dropBuffered(s.Stable)
		r.SetWindow(r.log.Low(), r.log.High())
	}
	if s.Fetch {
		r.sendStateFetch(s.From)
	}
}

// dropBuffered forgets out-of-order batches at or below a stable
// checkpoint.
func (r *Replica) dropBuffered(slot uint64) {
	for s := range r.buffered {
		if s <= slot {
			delete(r.buffered, s)
		}
	}
}

// sendStateFetch asks a replica for its stable snapshot.
func (r *Replica) sendStateFetch(rep int) {
	w := wire.NewWriter(16)
	w.U8(kindStateFetch)
	w.U64(r.lastExec)
	r.Send(r.cfg.Members[rep], w.Bytes())
}

func (r *Replica) onStateFetch(from transport.NodeID, haveExec uint64) {
	if pkt := r.ckpt.Serve([]byte{kindStateSnap}, haveExec); pkt != nil {
		r.Send(from, pkt)
	}
}

// onStateSnap installs a snapshot state transfer. The certificate's 2f+1
// authenticated votes bind both the snapshot digest and the history
// hash, so the speculative chain resumes from a certified point.
func (r *Replica) onStateSnap(body []byte) {
	cp := r.ckpt.Read(wire.NewReader(body))
	if cp == nil {
		return
	}
	if cp.Slot > r.lastExec {
		r.install(cp)
	}
}

// install adopts a checkpoint wholesale if it checks out: the
// shared tail of snapshot state transfer and crash-restart recovery
// (Config.Restore).
func (r *Replica) install(cp *seqlog.Checkpoint) {
	if !r.ckpt.Install(cp, r.Core) {
		return
	}
	r.log.Reset(cp.Slot)
	r.lastExec = cp.Slot
	if r.seq < cp.Slot {
		r.seq = cp.Slot
	}
	r.history = cp.Extra[0]
	r.dropBuffered(cp.Slot)
	r.SetWindow(r.log.Low(), r.log.High())
	// Buffered order-reqs above the checkpoint may now be executable.
	for {
		next, ok := r.buffered[r.lastExec+1]
		if !ok {
			break
		}
		delete(r.buffered, next.seq)
		r.execute(next)
	}
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate, its history hash, and the snapshot. A
// replica restarted with this blob (Config.Restore) resumes the
// speculative chain from the certified point; nil means no checkpoint
// is stable yet.
func (r *Replica) Persist() []byte { return r.Save().Blob() }

// Save captures on the loop what Persist encodes; the snapshot is
// encoded off it.
func (r *Replica) Save() seqlog.Saved {
	return replica.Read(r.Core, func() seqlog.Saved { return r.ckpt.Save(nil) })
}
