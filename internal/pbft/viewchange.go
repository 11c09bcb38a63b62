package pbft

import (
	"time"

	"neobft/internal/batch"
	"neobft/internal/replication"
	"neobft/internal/seqlog"
	"neobft/internal/tracing"
	"neobft/internal/wire"
)

// PBFT view change (Castro & Liskov §4.4). A view-change message
// carries the replica's stable checkpoint certificate plus a
// prepared-proof for every prepared slot above it: the batch, its
// digest, the view it prepared in and the 2f prepare authenticators.
// The new primary's recovery base is the highest stable checkpoint in
// its 2f+1 quorum — everything below it is finalized by certificate and
// needs no proofs — and it re-issues pre-prepares in the new view for
// every slot above that base, filling unprepared holes with empty
// (no-op) batches. Replicas whose execution is below the base fetch the
// checkpoint snapshot instead of the truncated batches.

type preparedProof struct {
	Seq    uint64
	View   uint64
	Digest [32]byte
	Batch  []*replication.Request
	Proof  []part
}

type vcMsg struct {
	Replica  uint32
	Target   uint64
	LastExec uint64
	// StableSeq/StableCert carry the replica's stable checkpoint (zero /
	// empty before the first checkpoint forms). Prepared-proofs cover
	// only slots above StableSeq.
	StableSeq  uint64
	StableCert []byte // marshaled seqlog.Cert
	Proofs     []preparedProof
	Tag        []byte
}

func (m *vcMsg) body() []byte {
	w := wire.NewWriter(256)
	w.Raw([]byte("pbft-vc"))
	w.U32(m.Replica)
	w.U64(m.Target)
	w.U64(m.LastExec)
	w.U64(m.StableSeq)
	w.VarBytes(m.StableCert)
	w.U32(uint32(len(m.Proofs)))
	for i := range m.Proofs {
		p := &m.Proofs[i]
		w.U64(p.Seq)
		w.U64(p.View)
		w.Bytes32(p.Digest)
		batch.MarshalInto(w, p.Batch)
		w.U32(uint32(len(p.Proof)))
		for _, pp := range p.Proof {
			w.U32(pp.Replica)
			w.VarBytes(pp.Tag)
		}
	}
	return w.Bytes()
}

func (m *vcMsg) marshal() []byte {
	body := m.body()
	w := wire.NewWriter(len(body) + 64)
	w.U8(kindViewChange)
	w.VarBytes(body)
	w.VarBytes(m.Tag)
	return w.Bytes()
}

func unmarshalVC(pkt []byte) (*vcMsg, bool) {
	rd := wire.NewReader(pkt)
	body := rd.VarBytes()
	tag := append([]byte(nil), rd.VarBytes()...)
	if rd.Done() != nil {
		return nil, false
	}
	br := wire.NewReader(body)
	if !br.Prefix("pbft-vc") {
		return nil, false
	}
	m := &vcMsg{Tag: tag}
	m.Replica = br.U32()
	m.Target = br.U64()
	m.LastExec = br.U64()
	m.StableSeq = br.U64()
	m.StableCert = append([]byte(nil), br.VarBytes()...)
	n := br.U32()
	if br.Err() != nil || n > 1<<20 {
		return nil, false
	}
	m.Proofs = make([]preparedProof, n)
	for i := range m.Proofs {
		p := &m.Proofs[i]
		p.Seq = br.U64()
		p.View = br.U64()
		p.Digest = br.Bytes32()
		reqs, ok := batch.Unmarshal(br)
		if !ok {
			return nil, false
		}
		p.Batch = reqs
		np := br.U32()
		if br.Err() != nil || np > 1<<16 {
			return nil, false
		}
		p.Proof = make([]part, np)
		for j := range p.Proof {
			p.Proof[j].Replica = br.U32()
			p.Proof[j].Tag = append([]byte(nil), br.VarBytes()...)
		}
	}
	if br.Done() != nil {
		return nil, false
	}
	return m, true
}

// startViewChange moves the replica into a view change toward
// target.
func (r *Replica) startViewChange(target uint64) {
	if target <= r.view {
		return
	}
	r.inVC = true
	r.vcTarget = target
	r.vcStart = time.Now()

	m := &vcMsg{Replica: uint32(r.cfg.Self), Target: target, LastExec: r.lastExec}
	if st := r.ckpt.Stable(); st != nil {
		m.StableSeq = st.Slot
		m.StableCert = st.Cert.Marshal()
	}
	// Proofs cover only the live window above the stable checkpoint; the
	// certificate vouches for everything below it.
	r.log.Ascend(r.log.Low()+1, func(seq uint64, s *slot) bool {
		if s.prepared && s.batch != nil {
			m.Proofs = append(m.Proofs, preparedProof{
				Seq: seq, View: s.view, Digest: s.digest, Batch: s.batch, Proof: s.prepareProof,
			})
		}
		return true
	})
	m.Tag = r.cfg.Auth.TagVector(m.body())
	r.storeVC(m)
	r.Broadcast(m.marshal())
	r.maybeNewView(target)
}

func (r *Replica) storeVC(m *vcMsg) {
	byRep := r.vcMsgs[m.Target]
	if byRep == nil {
		byRep = map[uint32]*vcMsg{}
		r.vcMsgs[m.Target] = byRep
	}
	byRep[m.Replica] = m
}

func (r *Replica) onViewChange(pkt []byte) {
	m, ok := unmarshalVC(pkt)
	if !ok {
		return
	}
	if int(m.Replica) >= r.cfg.N || m.Target <= r.view {
		return
	}
	if !r.cfg.Auth.VerifyVector(int(m.Replica), m.body(), m.Tag) {
		return
	}
	if !r.validProofs(m) {
		return
	}
	r.storeVC(m)
	// Join once f+1 distinct replicas demand a newer view.
	if (!r.inVC || r.vcTarget < m.Target) && len(r.vcMsgs[m.Target]) >= r.cfg.F+1 {
		r.startViewChange(m.Target)
		return
	}
	r.maybeNewView(m.Target)
}

// validStable validates the stable checkpoint certificate carried
// in a view-change message, returning the parsed certificate (nil when
// the message legitimately carries none).
func (r *Replica) validStable(m *vcMsg) (*seqlog.Cert, bool) {
	if m.StableSeq == 0 && len(m.StableCert) == 0 {
		return nil, true
	}
	cert, err := seqlog.UnmarshalCert(m.StableCert)
	if err != nil || cert.Slot != m.StableSeq || !r.ckpt.CheckCert(cert) {
		return nil, false
	}
	return cert, true
}

// validProofs validates a view-change message's stable checkpoint
// certificate and every prepared-proof above it.
func (r *Replica) validProofs(m *vcMsg) bool {
	if _, ok := r.validStable(m); !ok {
		return false
	}
	for i := range m.Proofs {
		p := &m.Proofs[i]
		if p.Seq <= m.StableSeq {
			return false
		}
		if batchDigest(p.Batch) != p.Digest {
			return false
		}
		seen := map[uint32]bool{}
		valid := 0
		for _, pp := range p.Proof {
			if int(pp.Replica) >= r.cfg.N || seen[pp.Replica] {
				continue
			}
			if !r.cfg.Auth.VerifyVector(int(pp.Replica), prepBody(p.View, p.Seq, p.Digest, pp.Replica), pp.Tag) {
				continue
			}
			seen[pp.Replica] = true
			valid++
		}
		if valid < 2*r.cfg.F {
			return false
		}
	}
	return true
}

type nvMsg struct {
	View uint64
	VCs  [][]byte // marshaled vcMsg packets without envelope kind
	Tag  []byte
}

func (m *nvMsg) body() []byte {
	w := wire.NewWriter(256)
	w.Raw([]byte("pbft-nv"))
	w.U64(m.View)
	w.U32(uint32(len(m.VCs)))
	for _, b := range m.VCs {
		w.VarBytes(b)
	}
	return w.Bytes()
}

// maybeNewView lets the primary of the target view broadcast a
// NEW-VIEW once it holds 2f+1 view-change messages.
func (r *Replica) maybeNewView(target uint64) {
	if int(target)%r.cfg.N != r.cfg.Self {
		return
	}
	if !r.inVC || r.vcTarget != target {
		return
	}
	byRep := r.vcMsgs[target]
	if len(byRep) < 2*r.cfg.F+1 {
		return
	}
	msgs := make([]*vcMsg, 0, len(byRep))
	raw := make([][]byte, 0, len(byRep))
	for _, m := range byRep {
		msgs = append(msgs, m)
		raw = append(raw, m.marshal()[1:])
	}
	nv := &nvMsg{View: target, VCs: raw}
	nv.Tag = r.cfg.Auth.TagVector(nv.body())
	w := wire.NewWriter(1024)
	w.U8(kindNewView)
	w.VarBytes(nv.body())
	w.VarBytes(nv.Tag)
	r.Broadcast(w.Bytes())
	r.enterNewView(target, msgs)
}

func (r *Replica) onNewView(pkt []byte) {
	rd := wire.NewReader(pkt)
	body := rd.VarBytes()
	tag := rd.VarBytes()
	if rd.Done() != nil {
		return
	}
	br := wire.NewReader(body)
	if !br.Prefix("pbft-nv") {
		return
	}
	view := br.U64()
	n := br.U32()
	if br.Err() != nil || n > uint32(r.cfg.N) {
		return
	}
	rawVCs := make([][]byte, n)
	for i := range rawVCs {
		rawVCs[i] = br.VarBytes()
	}
	if br.Done() != nil {
		return
	}
	if view <= r.view {
		return
	}
	primary := int(view) % r.cfg.N
	if !r.cfg.Auth.VerifyVector(primary, body, tag) {
		return
	}
	seen := map[uint32]bool{}
	msgs := make([]*vcMsg, 0, len(rawVCs))
	for _, raw := range rawVCs {
		m, ok := unmarshalVC(raw)
		if !ok || int(m.Replica) >= r.cfg.N || seen[m.Replica] || m.Target != view {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(m.Replica), m.body(), m.Tag) {
			continue
		}
		if !r.validProofs(m) {
			continue
		}
		seen[m.Replica] = true
		msgs = append(msgs, m)
	}
	if len(msgs) < 2*r.cfg.F+1 {
		return
	}
	r.enterNewView(view, msgs)
}

// enterNewView installs the new view. The recovery base is the
// highest stable checkpoint in the quorum — slots at or below it are
// finalized by certificate, and their batches may no longer exist
// anywhere — and every slot above it up to the quorum's tip is
// re-issued with the prepared batch of the highest view (or an empty
// no-op batch for holes).
func (r *Replica) enterNewView(view uint64, msgs []*vcMsg) {
	var base uint64
	var baseCert *seqlog.Cert
	var baseFrom uint32
	var maxSeq uint64
	chosen := map[uint64]*preparedProof{}
	for _, m := range msgs {
		if m.StableSeq > base {
			if c, ok := r.validStable(m); ok && c != nil {
				base = m.StableSeq
				baseCert = c
				baseFrom = m.Replica
			}
		}
		if m.LastExec > maxSeq {
			maxSeq = m.LastExec
		}
		for i := range m.Proofs {
			p := &m.Proofs[i]
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
			if cur, ok := chosen[p.Seq]; !ok || p.View > cur.View {
				chosen[p.Seq] = p
			}
		}
	}
	if baseCert != nil {
		r.ckpt.Raise(baseCert)
	}
	r.view = view
	r.inVC = false
	r.viewChanges++
	r.mViewChg.Inc()
	r.Trace().Record(tkPBFTViewChange, view, 0)
	r.Runtime().Tracer().Always(tracing.PhaseViewChange, time.Now(), 0, view, 0, "pbft view change")
	clear(r.pendingClientReqs)
	for t := range r.vcMsgs {
		if t <= view {
			delete(r.vcMsgs, t)
		}
	}
	// Reset agreement state for all non-executed slots and adopt the
	// chosen batches in the new view.
	if r.seq < maxSeq {
		r.seq = maxSeq
	}
	for seq := base + 1; seq <= maxSeq; seq++ {
		s := r.slotFor(seq)
		if s == nil || s.executed {
			// Below our low watermark (already checkpointed locally) or
			// beyond our window (recovered by checkpoint fetch later).
			continue
		}
		var reqs []*replication.Request
		var digest [32]byte
		if p, ok := chosen[seq]; ok {
			reqs = p.Batch
			digest = p.Digest
		} else {
			reqs = nil
			digest = batchDigest(nil)
		}
		s.view = view
		s.batch = reqs
		s.digest = digest
		s.prepared = false
		s.committed = false
		s.sentCommit = false
		s.prepares = map[uint32][]byte{}
		s.commits = map[uint32][]byte{}
		s.pp = nil
		if r.isPrimary() {
			r.sendPrePrepare(seq, s)
		} else {
			// Backups prepare the re-issued slot immediately.
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
		}
	}
	if r.lastExec < base {
		// Our execution is below the quorum's stable checkpoint: the
		// batches for those slots are garbage-collected, so fetch the
		// snapshot from the replica that supplied the certificate.
		r.sendStateFetch(int(baseFrom))
	}
	r.tryIssue()
}
