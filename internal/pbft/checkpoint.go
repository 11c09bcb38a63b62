package pbft

import (
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

// captureCheckpointLocked runs after executing an interval boundary.
// Caller holds r.mu.
func (r *Replica) captureCheckpointLocked(seq uint64) {
	w := wire.NewWriter(128)
	w.U8(kindCheckpoint)
	if step, ok := r.ckpt.Capture(w, seq, r.Capture()); ok {
		r.Broadcast(w.Bytes())
		r.stepLocked(step)
	}
}

func (r *Replica) onCheckpoint(v seqlog.Vote) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.Slot%uint64(r.cfg.CheckpointInterval) == 0 {
		r.stepLocked(r.ckpt.Add(v, r.horizonLocked()))
	}
}

// stepLocked truncates below a checkpoint of ours that became stable —
// the watermark window moves, so the primary may resume issuing — or
// fetches the snapshot the group is ahead with. Caller holds r.mu.
func (r *Replica) stepLocked(s seqlog.Step) {
	if s.Stable != 0 {
		seqlog.Truncate(r.ckpt, &r.log, s.Stable)
		r.SetWindow(r.log.Low(), r.log.High())
		r.tryIssueLocked()
	}
	if s.Fetch {
		r.sendStateFetchLocked(s.From)
	}
}

// sendStateFetchLocked asks a replica for its stable snapshot. Caller
// holds r.mu.
func (r *Replica) sendStateFetchLocked(rep int) {
	w := wire.NewWriter(16)
	w.U8(kindStateFetch)
	w.U64(r.lastExec)
	r.Send(r.cfg.Members[rep], w.Bytes())
}

func (r *Replica) onStateFetch(from transport.NodeID, haveExec uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if cp.Slot > r.lastExec {
		r.installLocked(cp)
	}
}

// installLocked adopts a checkpoint wholesale if it checks out: the
// shared tail of snapshot state transfer and crash-restart recovery
// (Config.Restore). Caller holds r.mu.
func (r *Replica) installLocked(cp *seqlog.Checkpoint) {
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
	r.tryIssueLocked()
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate and snapshot. A replica restarted with
// this blob (Config.Restore) resumes from the checkpoint and catches up
// through normal state transfer; nil means no checkpoint is stable yet
// and a restart must recover entirely from peers.
func (r *Replica) Persist() []byte { return r.Save().Blob() }

// Save captures what Persist encodes under r.mu; the snapshot is encoded
// after the lock is released.
func (r *Replica) Save() seqlog.Saved {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckpt.Save(nil)
}
