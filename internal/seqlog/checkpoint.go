// Checkpoints: one replica's side of the stable-checkpoint protocol that
// PBFT, MinBFT, Zyzzyva and NeoBFT share. At an interval boundary a
// replica captures a snapshot and broadcasts an authenticated vote over
// its digest; a quorum of matching votes is a certificate, the finality
// point below which the log is truncated and the snapshot that replicas
// which fell behind install instead of replaying truncated slots.
package seqlog

import (
	"errors"
	"sort"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/wire"
)

// Body returns the canonical byte string a replica authenticates when
// voting for checkpoint (slot, digest). It is deliberately
// view-independent (like PBFT's ⟨CHECKPOINT, n, d, i⟩) so certificates
// built from these votes survive view changes.
func Body(domain string, slot uint64, digest [32]byte, replica uint32) []byte {
	w := wire.NewWriter(64 + len(domain))
	w.Raw([]byte(domain))
	w.U64(slot)
	w.Bytes32(digest)
	w.U32(replica)
	return w.Bytes()
}

// Digest folds a checkpoint's components (typically the log hash and the
// application state digest at the checkpoint slot) into the single
// digest replicas vote on.
func Digest(domain string, slot uint64, parts ...[32]byte) [32]byte {
	w := wire.NewWriter(16 + len(domain) + 32*len(parts))
	w.Raw([]byte(domain))
	w.U64(slot)
	for _, p := range parts {
		w.Bytes32(p)
	}
	return wire.Digest(w.Bytes())
}

// Part is one replica's authenticated vote inside a certificate.
type Part struct {
	Replica uint32
	Tag     []byte
}

// Cert is a stable checkpoint certificate: a quorum of authenticated
// votes for the same (slot, digest).
type Cert struct {
	Slot   uint64
	Digest [32]byte
	Parts  []Part
}

// Marshal encodes the certificate.
func (c *Cert) Marshal() []byte {
	w := wire.NewWriter(64 + 48*len(c.Parts))
	w.U64(c.Slot)
	w.Bytes32(c.Digest)
	w.U16(uint16(len(c.Parts)))
	for _, p := range c.Parts {
		w.U32(p.Replica)
		w.VarBytes(p.Tag)
	}
	return w.Bytes()
}

var errCertTooManyParts = errors.New("seqlog: certificate part count out of range")

// UnmarshalCert decodes a certificate. It validates structure only;
// call Verify to check the votes.
func UnmarshalCert(b []byte) (*Cert, error) {
	rd := wire.NewReader(b)
	c := &Cert{}
	c.Slot = rd.U64()
	c.Digest = rd.Bytes32()
	n := rd.U16()
	if n > 1<<10 {
		return nil, errCertTooManyParts
	}
	c.Parts = make([]Part, n)
	for i := range c.Parts {
		c.Parts[i].Replica = rd.U32()
		c.Parts[i].Tag = append([]byte(nil), rd.VarBytes()...)
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// Verify checks that the certificate holds at least quorum votes from
// distinct replicas in [0, n), each authenticating Body(domain, slot,
// digest, replica) under verify.
func (c *Cert) Verify(domain string, n, quorum int, verify func(replica uint32, body, tag []byte) bool) bool {
	seen := make(map[uint32]bool, len(c.Parts))
	valid := 0
	for _, p := range c.Parts {
		if int(p.Replica) >= n || seen[p.Replica] {
			return false
		}
		seen[p.Replica] = true
		if !verify(p.Replica, Body(domain, c.Slot, c.Digest, p.Replica), p.Tag) {
			return false
		}
		valid++
	}
	return valid >= quorum
}

type ckptVote struct {
	digest [32]byte
	tag    []byte
}

// Engine accumulates checkpoint votes and forms stable certificates.
// Votes are keyed by (slot, replica); a replica re-voting for a slot
// replaces its earlier vote (speculative protocols re-checkpoint after
// rollback). The engine assumes the caller has already authenticated
// each vote's tag against Body(domain, slot, digest, replica).
type Engine struct {
	// Quorum is the number of matching votes that makes a checkpoint
	// stable (2f+1 for PBFT-style protocols, f+1 for MinBFT).
	Quorum int

	votes  map[uint64]map[uint32]ckptVote
	stable *Cert
}

// NewEngine creates an engine with the given stability quorum.
func NewEngine(quorum int) *Engine {
	return &Engine{Quorum: quorum, votes: make(map[uint64]map[uint32]ckptVote)}
}

// Stable returns the highest stable certificate formed so far (nil if
// none).
func (e *Engine) Stable() *Cert { return e.stable }

// SetStable installs an externally obtained certificate (e.g. received
// during state transfer) if it is higher than the current one.
func (e *Engine) SetStable(c *Cert) {
	if c == nil {
		return
	}
	if e.stable == nil || c.Slot > e.stable.Slot {
		e.stable = c
		e.prune(c.Slot)
	}
}

// Add records a replica's authenticated vote for (slot, digest). If the
// vote completes a quorum of matching digests at a slot above the
// current stable checkpoint, the new stable certificate is formed,
// votes at or below it are discarded, and the certificate is returned;
// otherwise Add returns nil. The certificate's parts are in ascending
// replica order, so one quorum always marshals to the same bytes.
func (e *Engine) Add(slot uint64, replica uint32, digest [32]byte, tag []byte) *Cert {
	if e.stable != nil && slot <= e.stable.Slot {
		return nil
	}
	m := e.votes[slot]
	if m == nil {
		m = make(map[uint32]ckptVote)
		e.votes[slot] = m
	}
	m[replica] = ckptVote{digest: digest, tag: append([]byte(nil), tag...)}

	matching := 0
	for _, v := range m {
		if v.digest == digest {
			matching++
		}
	}
	if matching < e.Quorum {
		return nil
	}
	cert := &Cert{Slot: slot, Digest: digest}
	for r, v := range m {
		if v.digest == digest {
			cert.Parts = append(cert.Parts, Part{Replica: r, Tag: v.tag})
		}
	}
	sort.Slice(cert.Parts, func(i, j int) bool { return cert.Parts[i].Replica < cert.Parts[j].Replica })
	e.stable = cert
	e.prune(slot)
	return cert
}

// Votes returns the number of slots with outstanding (non-stable)
// votes, for bounding checks in tests.
func (e *Engine) Votes() int { return len(e.votes) }

func (e *Engine) prune(slot uint64) {
	for s := range e.votes {
		if s <= slot {
			delete(e.votes, s)
		}
	}
}

// fetchCooldown spaces the state fetches a replica starts on its own
// (ahead claims, a primary ordering beyond the window), so a burst of
// such messages does not become a burst of fetches.
const fetchCooldown = 100 * time.Millisecond

// CheckpointConfig is what a protocol supplies to run checkpoints.
type CheckpointConfig struct {
	// Domain separates the protocol's checkpoint authenticators from
	// every other authenticated body (e.g. "pbft-ckpt").
	Domain string
	// Self is this replica's index among N.
	Self, N int
	// Quorum is the number of matching votes that makes a checkpoint
	// stable: 2f+1, or f+1 when a trusted counter rules out
	// equivocation. Either way up to N−Quorum replicas may be faulty.
	Quorum int
	// Extra is how many 32-byte values the digest binds ahead of the
	// state digest: 0 for PBFT and MinBFT, 1 for Zyzzyva's history hash
	// and NeoBFT's log hash.
	Extra int
	// Auth produces and checks the transferable vote authenticators.
	Auth auth.Authenticator
	// Metrics receives the proto_* checkpoint series (nil: none).
	Metrics *metrics.Registry
}

// Checkpoint is a snapshot this replica captured or installed.
type Checkpoint struct {
	Slot  uint64
	Extra [][32]byte // the protocol's extra digest parts, in order
	// State is the checkpointed state: the replica's frozen view when
	// captured, the checked snapshot bytes once a received checkpoint
	// passes Check. It is encoded only when served or persisted.
	State  replication.Frozen
	Digest [32]byte // Digest(domain, Slot, Extra…, State.Digest())
	Cert   *Cert    // the quorum certificate once stable, else nil

	data []byte // a received checkpoint's snapshot, unchecked until Check
}

// Machine is the replica state a received checkpoint installs into.
type Machine interface {
	// StateDigest computes the state digest of snapshot bytes, the
	// digest a capture of the state they encode would vote for.
	StateDigest(snapshot []byte) ([32]byte, error)
	// InstallSnapshot replaces the replica's state with the snapshot's.
	InstallSnapshot(snapshot []byte) error
}

// received is a checked snapshot that arrived as bytes.
type received struct {
	data   []byte
	digest [32]byte
}

func (r received) Digest() [32]byte           { return r.digest }
func (r received) Size() int                  { return len(r.data) }
func (r received) AppendTo(buf []byte) []byte { return append(buf, r.data...) }

// AppendDelta implements replication.Frozen: bytes carry no history to
// describe a change from.
func (r received) AppendDelta(buf []byte, _ replication.Frozen) ([]byte, bool) { return buf, false }

// Vote is one replica's decoded checkpoint vote.
type Vote struct {
	Replica uint32
	Slot    uint64
	Digest  [32]byte
	Tag     []byte
}

// Step is what a vote asks of the protocol.
type Step struct {
	// Stable is the slot of this replica's own checkpoint that just
	// became stable, 0 if none: truncate the log to it.
	Stable uint64
	// Fetch asks for the stable snapshot from From, a peer other than
	// this replica: a quorum certified a state this replica does not
	// hold, or more than N−Quorum replicas voted beyond its window.
	Fetch bool
	From  int
}

// Checkpointer is one replica's side of the checkpoint protocol: its
// pending checkpoints, the stable one it serves and persists, the vote
// pool, and the claims of replicas ahead of it. ReadVote and VerifyVote
// touch no mutable state and may run on verification workers; every
// other method runs under the replica's lock.
type Checkpointer struct {
	cfg       CheckpointConfig
	votes     *Engine
	pending   map[uint64]*Checkpoint
	stable    *Checkpoint
	ahead     map[uint32]uint64 // voter → its highest slot beyond our window
	lastFetch time.Time
	installs  uint64

	mCaptured, mTruncated, mServed, mInstalled, mBeyond *metrics.Counter
}

// NewCheckpointer creates a replica's checkpointer.
func NewCheckpointer(cfg CheckpointConfig) *Checkpointer {
	reg := cfg.Metrics
	return &Checkpointer{
		cfg:        cfg,
		votes:      NewEngine(cfg.Quorum),
		pending:    map[uint64]*Checkpoint{},
		ahead:      map[uint32]uint64{},
		mCaptured:  reg.Counter("proto_checkpoints_total"),
		mTruncated: reg.Counter("proto_truncated_slots_total"),
		mServed:    reg.Counter("proto_state_snapshots_served_total"),
		mInstalled: reg.Counter("proto_state_snapshots_installed_total"),
		mBeyond:    reg.Counter("proto_sync_horizon_rejects_total"),
	}
}

// digest binds a checkpoint's slot, extra parts and state digest.
func (c *Checkpointer) digest(slot uint64, extra [][32]byte, stateD [32]byte) [32]byte {
	return Digest(c.cfg.Domain, slot, append(extra[:len(extra):len(extra)], stateD)...)
}

// floor is the slot of the highest certificate known; votes and captures
// at or below it are moot.
func (c *Checkpointer) floor() uint64 {
	if s := c.votes.Stable(); s != nil {
		return s.Slot
	}
	return 0
}

// Capture records state as this replica's checkpoint at slot and
// appends its vote, replica u32 | slot u64 | extra… | state digest |
// tag, to w. It declines (false) a slot at or below the highest
// certificate. The step is what the replica's own vote completed: act on
// it after sending w.
func (c *Checkpointer) Capture(w *wire.Writer, slot uint64, state replication.Frozen, extra ...[32]byte) (Step, bool) {
	if slot <= c.floor() {
		return Step{}, false
	}
	stateD := state.Digest()
	cp := &Checkpoint{Slot: slot, Extra: extra, State: state, Digest: c.digest(slot, extra, stateD)}
	c.pending[slot] = cp
	c.mCaptured.Inc()
	self := uint32(c.cfg.Self)
	tag := c.cfg.Auth.TagVector(Body(c.cfg.Domain, slot, cp.Digest, self))
	w.U32(self)
	w.U64(slot)
	for _, e := range extra {
		w.Bytes32(e)
	}
	w.Bytes32(stateD)
	w.VarBytes(tag)
	return c.add(Vote{Replica: self, Slot: slot, Digest: cp.Digest, Tag: tag}), true
}

// ReadVote decodes a vote as Capture writes it, leaving rd after the
// tag. It reports false on a short read or a voter outside [0, N); the
// vote is not yet authenticated.
func (c *Checkpointer) ReadVote(rd *wire.Reader) (Vote, bool) {
	replica := rd.U32()
	slot := rd.U64()
	extra := make([][32]byte, c.cfg.Extra)
	for i := range extra {
		extra[i] = rd.Bytes32()
	}
	stateD := rd.Bytes32()
	tag := append([]byte(nil), rd.VarBytes()...)
	if rd.Err() != nil || int(replica) >= c.cfg.N {
		return Vote{}, false
	}
	return Vote{Replica: replica, Slot: slot, Digest: c.digest(slot, extra, stateD), Tag: tag}, true
}

// VerifyVote reports whether v's tag authenticates it as its voter's.
func (c *Checkpointer) VerifyVote(v Vote) bool {
	return c.cfg.Auth.VerifyVector(int(v.Replica), Body(c.cfg.Domain, v.Slot, v.Digest, v.Replica), v.Tag)
}

// Add pools an authenticated vote. horizon is the highest slot the
// replica keeps state for: a vote beyond it is counted in
// proto_sync_horizon_rejects_total and kept only as its voter's claim to
// be ahead, never pooled, so a Byzantine voter cannot pin memory.
func (c *Checkpointer) Add(v Vote, horizon uint64) Step {
	if v.Slot <= c.floor() {
		return Step{}
	}
	if v.Slot > horizon {
		c.mBeyond.Inc()
		return c.claim(v, horizon)
	}
	return c.add(v)
}

func (c *Checkpointer) add(v Vote) Step {
	cert := c.votes.Add(v.Slot, v.Replica, v.Digest, v.Tag)
	if cert == nil {
		return Step{}
	}
	if cp := c.pending[cert.Slot]; cp != nil && cp.Digest == cert.Digest {
		cp.Cert = cert
		c.adopt(cp)
		return Step{Stable: cert.Slot}
	}
	// The quorum certified a state this replica does not hold: it is
	// behind, or its speculative state diverged.
	for _, p := range cert.Parts {
		if int(p.Replica) != c.cfg.Self {
			return Step{Fetch: true, From: int(p.Replica)}
		}
	}
	return Step{}
}

// claim records that v's voter is beyond this replica's window. Once
// more than N−Quorum replicas are, at least one of them is honest, and
// the replica fetches from the furthest ahead (lowest index on a tie),
// at most once per cooldown.
func (c *Checkpointer) claim(v Vote, horizon uint64) Step {
	if int(v.Replica) != c.cfg.Self && v.Slot > c.ahead[v.Replica] {
		c.ahead[v.Replica] = v.Slot
	}
	var step Step
	var best uint64
	n := 0
	for rep, s := range c.ahead {
		if s <= horizon {
			delete(c.ahead, rep)
			continue
		}
		n++
		if s > best || s == best && int(rep) < step.From {
			best, step.From = s, int(rep)
		}
	}
	step.Fetch = n > c.cfg.N-c.cfg.Quorum && c.FetchDue()
	return step
}

// FetchDue reports whether a state fetch the replica starts on its own
// may go out now and, if so, starts the cooldown.
func (c *Checkpointer) FetchDue() bool {
	if time.Since(c.lastFetch) < fetchCooldown {
		return false
	}
	c.lastFetch = time.Now()
	return true
}

// adopt makes cp the stable checkpoint and drops the pending ones it
// supersedes.
func (c *Checkpointer) adopt(cp *Checkpoint) {
	c.stable = cp
	c.votes.SetStable(cp.Cert)
	for s := range c.pending {
		if s <= cp.Slot {
			delete(c.pending, s)
		}
	}
}

// Forget drops pending checkpoints at or above slot, which a rollback
// invalidated; re-executing across the boundary captures them again.
func (c *Checkpointer) Forget(slot uint64) {
	for s := range c.pending {
		if s >= slot {
			delete(c.pending, s)
		}
	}
}

// Raise moves the vote floor up to cert, a stable checkpoint learned
// without its snapshot (from a view change).
func (c *Checkpointer) Raise(cert *Cert) { c.votes.SetStable(cert) }

// Stable returns the stable checkpoint this replica serves and
// persists, nil before the first.
func (c *Checkpointer) Stable() *Checkpoint { return c.stable }

// Truncate drops l's slots at or below slot, where a checkpoint of ours
// just became stable, counting them in proto_truncated_slots_total.
func Truncate[T any](c *Checkpointer, l *Log[T], slot uint64) {
	c.mTruncated.Add(uint64(l.TruncateTo(slot)))
}

// Serve returns the state-snapshot message for a replica whose state
// ends at have: prefix (the protocol's kind byte and any header) then the
// stable checkpoint as cert | extra… | snapshot. Nil when there is
// nothing newer to send.
func (c *Checkpointer) Serve(prefix []byte, have uint64) []byte {
	if c.stable == nil || c.stable.Slot <= have {
		return nil
	}
	c.mServed.Inc()
	return encode(prefix, c.stable)
}

// Saved is the state a restarted replica boots from, captured but not yet
// encoded: the protocol's prefix and the stable checkpoint. A stable
// checkpoint and its frozen state never change once adopted, so a
// replica captures a Saved under its lock and encodes it with Blob after
// releasing it, on any goroutine.
type Saved struct {
	Prefix []byte
	Stable *Checkpoint // nil before the first stable checkpoint
}

// Save captures prefix and the stable checkpoint for Blob.
func (c *Checkpointer) Save(prefix []byte) Saved {
	return Saved{Prefix: prefix, Stable: c.stable}
}

// Blob returns the prefix then the stable checkpoint, encoded as Serve
// sends it. Nil before the first stable checkpoint.
func (s Saved) Blob() []byte {
	if s.Stable == nil {
		return nil
	}
	return encode(s.Prefix, s.Stable)
}

// A delta record describes a Saved as changes to base, an earlier Saved
// of the same replica:
//
//	u64 base slot | base digest | u32 base prefix length |
//	varbytes prefix | varbytes cert | u8 k | k × extra | varbytes state delta
//
// It names its base by the stable slot and the certified digest, which
// binds the base's state digest, and carries the new head (prefix,
// certificate, extra parts) whole: only the state travels as a delta.
// PatchBlob turns the base's Blob and the delta into the newer Blob.

// Delta encodes s as changes to base, or reports false when it cannot:
// either has no stable checkpoint, or s's state cannot describe itself
// as changes to base's.
func (s Saved) Delta(base Saved) ([]byte, bool) {
	if s.Stable == nil || base.Stable == nil {
		return nil, false
	}
	cert := s.Stable.Cert.Marshal()
	w := wire.NewWriter(128 + len(s.Prefix) + len(cert) + 32*len(s.Stable.Extra))
	w.U64(base.Stable.Slot)
	w.Bytes32(base.Stable.Digest)
	w.U32(uint32(len(base.Prefix)))
	w.VarBytes(s.Prefix)
	w.VarBytes(cert)
	w.U8(uint8(len(s.Stable.Extra)))
	for _, e := range s.Stable.Extra {
		w.Bytes32(e)
	}
	if !w.VarAppendIf(func(buf []byte) ([]byte, bool) { return s.Stable.State.AppendDelta(buf, base.Stable.State) }) {
		return nil, false
	}
	return w.Bytes(), true
}

var errDelta = errors.New("seqlog: delta does not apply to this blob")

// PatchBlob returns the Blob of the Saved a delta encodes, given the
// Blob of its base. patch applies the state delta to the base's state
// snapshot (the application's Patch). It checks that blob is the base the
// delta names, not that the result is certified: installing it does.
func PatchBlob(blob, delta []byte, patch func(state, delta []byte) ([]byte, error)) ([]byte, error) {
	rd := wire.NewReader(delta)
	baseSlot := rd.U64()
	baseDigest := rd.Bytes32()
	basePrefix := rd.U32()
	prefix := rd.VarBytes()
	certB := rd.VarBytes()
	k := int(rd.U8())
	extra := make([]byte, 0, 32*k)
	for range k {
		e := rd.Bytes32()
		extra = append(extra, e[:]...)
	}
	stateD := rd.VarBytes()
	if rd.Done() != nil || uint64(basePrefix) > uint64(len(blob)) {
		return nil, errDelta
	}
	br := wire.NewReader(blob[basePrefix:])
	base, err := UnmarshalCert(br.VarBytes())
	for range k {
		br.Bytes32()
	}
	state := br.VarBytes()
	if err != nil || br.Done() != nil || base.Slot != baseSlot || base.Digest != baseDigest {
		return nil, errDelta
	}
	if state, err = patch(state, stateD); err != nil {
		return nil, err
	}
	w := wire.NewWriter(len(prefix) + len(certB) + len(extra) + len(state) + 8)
	w.Raw(prefix)
	w.VarBytes(certB)
	w.Raw(extra)
	w.VarBytes(state)
	return w.Bytes(), nil
}

func encode(prefix []byte, cp *Checkpoint) []byte {
	w := wire.NewWriter(len(prefix) + 256 + cp.State.Size())
	w.Raw(prefix)
	w.VarBytes(cp.Cert.Marshal())
	for _, e := range cp.Extra {
		w.Bytes32(e)
	}
	w.VarAppend(cp.State.AppendTo)
	return w.Bytes()
}

// Read decodes the rest of rd as Serve and Saved.Blob encode a checkpoint,
// nil if malformed. The checkpoint is unchecked until Install.
func (c *Checkpointer) Read(rd *wire.Reader) *Checkpoint {
	certB := rd.VarBytes()
	cp := &Checkpoint{Extra: make([][32]byte, c.cfg.Extra)}
	for i := range cp.Extra {
		cp.Extra[i] = rd.Bytes32()
	}
	cp.data = append([]byte(nil), rd.VarBytes()...)
	if rd.Done() != nil {
		return nil
	}
	cert, err := UnmarshalCert(certB)
	if err != nil {
		return nil
	}
	cp.Slot, cp.Digest, cp.Cert = cert.Slot, cert.Digest, cert
	return cp
}

// CheckCert reports whether cert holds Quorum authentic votes from
// distinct replicas for its slot and digest.
func (c *Checkpointer) CheckCert(cert *Cert) bool {
	return cert.Verify(c.cfg.Domain, c.cfg.N, c.cfg.Quorum, func(rep uint32, body, tag []byte) bool {
		return c.cfg.Auth.VerifyVector(int(rep), body, tag)
	})
}

// Check reports whether cp is what its certificate certifies: a valid
// quorum certificate whose digest binds cp's extra parts and state
// digest. For a checkpoint Read decoded, m computes that digest from the
// snapshot bytes, and on success cp's State is those bytes.
func (c *Checkpointer) Check(cp *Checkpoint, m Machine) bool {
	if cp.Cert == nil || cp.Cert.Slot != cp.Slot || !c.CheckCert(cp.Cert) {
		return false
	}
	state := cp.State
	if state == nil {
		d, err := m.StateDigest(cp.data)
		if err != nil {
			return false
		}
		state = received{data: cp.data, digest: d}
	}
	if cp.Cert.Digest != c.digest(cp.Slot, cp.Extra, state.Digest()) {
		return false
	}
	cp.State = state
	return true
}

// Install adopts a checkpoint received in state transfer or read back
// after a restart: if Check passes and m installs its snapshot, cp
// becomes the stable checkpoint. Nothing in m changes unless Check
// passes. The protocol then moves its own state to cp.Slot.
func (c *Checkpointer) Install(cp *Checkpoint, m Machine) bool {
	if !c.Check(cp, m) || m.InstallSnapshot(cp.data) != nil {
		return false
	}
	c.adopt(cp)
	c.installs++
	c.mInstalled.Inc()
	return true
}

// Installs returns how many checkpoints Install adopted.
func (c *Checkpointer) Installs() uint64 { return c.installs }

// Votes returns the number of slots with pooled votes, for bounding
// checks in tests.
func (c *Checkpointer) Votes() int { return c.votes.Votes() }
