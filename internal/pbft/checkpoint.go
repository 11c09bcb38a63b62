package pbft

import (
	"neobft/internal/replica"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// PBFT checkpoints (Castro & Liskov §4.3) over the shared seqlog
// checkpointer. After executing a sequence number that is a multiple of
// the checkpoint interval, each replica snapshots its state (application
// plus client table) and broadcasts ⟨CHECKPOINT, n, d, i⟩_σi over the
// snapshot digest; 2f+1 matching votes form a stable certificate. It
// moves the low watermark — slots at or below it are truncated — and
// replaces their prepared-proofs in view changes. A replica that falls
// behind the group's window fetches the stable snapshot instead of
// replaying slots that no longer exist.

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

// step truncates below a checkpoint of ours that became stable —
// the watermark window moves, so the primary may resume issuing — or
// fetches the snapshot the group is ahead with.
func (r *Replica) step(s seqlog.Step) {
	if s.Stable != 0 {
		seqlog.Truncate(r.ckpt, &r.log, s.Stable)
		r.SetWindow(r.log.Low(), r.log.High())
		r.tryIssue()
	}
	if s.Fetch {
		r.sendStateFetch(s.From)
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

// onStateSnap installs a snapshot state transfer. The certificate's
// 2f+1 authenticated votes bind the snapshot digest, so the snapshot
// needs no further trust in the sender.
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
	// Requests pending suspicion timers may have been executed inside the
	// snapshot; retransmissions are answered from the restored table.
	clear(r.pendingClientReqs)
	r.SetWindow(r.log.Low(), r.log.High())
	r.tryIssue()
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate and snapshot. A replica restarted with
// this blob (Config.Restore) resumes from the checkpoint and catches up
// through normal state transfer; nil means no checkpoint is stable yet
// and a restart must recover entirely from peers.
func (r *Replica) Persist() []byte { return r.Save().Blob() }

// Save captures on the loop what Persist encodes; the snapshot is
// encoded off it.
func (r *Replica) Save() seqlog.Saved {
	return replica.Read(r.Core, func() seqlog.Saved { return r.ckpt.Save(nil) })
}
