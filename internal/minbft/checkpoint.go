package minbft

import (
	"neobft/internal/replica"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// MinBFT checkpoints over the shared seqlog checkpointer. Because the
// USIG rules out equivocation, f+1 matching votes over the snapshot
// digest suffice for stability (at least one is honest, and no replica
// can have voted for two different states at the same counter).
// Stability truncates the slot window below the checkpoint; a replica
// that falls behind the group's window fetches the stable snapshot
// instead of replaying slots that no longer exist — a recovery path
// plain MinBFT lacks, since a single missed prepare otherwise wedges the
// sequential-counter check forever.

// captureCheckpoint runs after executing an interval boundary.
func (r *Replica) captureCheckpoint(seq uint64) {
	w := wire.NewWriter(128)
	w.U8(kindCheckpoint)
	if step, ok := r.ckpt.Capture(w, seq, r.Capture()); ok {
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
		r.SetWindow(r.log.Low(), r.log.High())
		r.tryIssue()
	}
	if s.Fetch {
		w := wire.NewWriter(16)
		w.U8(kindStateFetch)
		w.U64(r.lastExec)
		r.Send(r.cfg.Members[s.From], w.Bytes())
	}
}

func (r *Replica) onStateFetch(from transport.NodeID, haveExec uint64) {
	if pkt := r.ckpt.Serve([]byte{kindStateSnap}, haveExec); pkt != nil {
		r.Send(from, pkt)
	}
}

// onStateSnap installs a snapshot state transfer. The certificate's f+1
// authenticated votes bind the snapshot digest, so the snapshot needs no
// further trust in the sender.
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
	// The primary's USIG counter equals the slot number: resuming the
	// sequential-prepare check from the checkpoint lets the next prepare
	// (cp.Slot+1) through.
	prim := uint32(r.primary())
	if r.lastSeen[prim] < cp.Slot {
		r.lastSeen[prim] = cp.Slot
	}
	r.SetWindow(r.log.Low(), r.log.High())
	r.tryIssue()
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate and snapshot. A replica restarted with
// this blob (Config.Restore) resumes from the checkpoint. Nil means no
// checkpoint is stable yet and a restart recovers entirely from peers.
// The USIG state is deliberately not part of the blob: it models the
// trusted counter surviving in the enclave, so the harness hands the
// same USIG instance back to the restarted replica.
func (r *Replica) Persist() []byte { return r.Save().Blob() }

// Save captures on the loop what Persist encodes; the snapshot is
// encoded off it.
func (r *Replica) Save() seqlog.Saved {
	return replica.Read(r.Core, func() seqlog.Saved { return r.ckpt.Save(nil) })
}
