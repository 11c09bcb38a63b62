// Package hotstuff implements chained HotStuff (Yin et al., PODC '19),
// the linear-communication BFT baseline of the paper's evaluation. A
// rotating leader proposes blocks that carry a quorum certificate (QC)
// over the previous block; replicas vote to the next leader; a block
// commits once it heads a three-chain of consecutive QCs. The extra
// phase buys O(N) view changes at the price of one more round — which is
// why HotStuff has the highest commit latency in Fig 7.
//
// The timeout pacemaker is omitted: the evaluation exercises the
// fault-free pipeline (leaders rotate via QC formation).
package hotstuff

import (
	"crypto/sha256"
	"time"

	"neobft/internal/batch"
	"neobft/internal/metrics"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Flight-recorder event kind for three-chain block commits.
var tkHSCommit = metrics.RegisterTraceKind("hotstuff_block_commit") // a=height, b=view

// Message kinds.
const (
	kindPropose uint8 = replication.KindProtocolBase + iota
	kindVote
)

// Config configures a HotStuff replica.
//
// CheckpointInterval is the number of committed heights between
// compactions (default 128). Three-chain commits are final, so compaction
// is purely local: no checkpoint vote exchange is needed, the block tree
// and vote maps are simply pruned below the boundary.
//
// Restore boots from a Persist() blob. Three-chain commits are locally
// final, so the blob is just the executed height plus state snapshot — no
// certificate is involved. HotStuff has no peer state-transfer path: a
// restored replica resumes with its committed state but cannot vote on
// blocks whose ancestry predates the restart, so it follows passively
// until the chain catches it up (or forever, if proposals reference
// pruned parents — the known liveness gap of restart without block sync).
type Config struct {
	replica.Config
	// Batch configures the leaders' batcher (batch defaults when zero).
	Batch batch.Config
}

type qc struct {
	view  uint64
	block [32]byte
	parts []part
}

type part struct {
	Replica uint32
	Tag     []byte
}

type block struct {
	hash    [32]byte
	view    uint64
	height  uint64
	parent  [32]byte
	digest  [32]byte
	batch   []*replication.Request
	justify *qc
}

// Replica is a HotStuff replica.
type Replica struct {
	*replica.Core
	cfg Config

	blocks    map[[32]byte]*block
	highQC    *qc
	lockedQC  *qc
	votes     map[[32]byte]map[uint32][]byte // block hash → replica → tag
	voted     map[uint64]bool                // views this replica voted in
	proposed  map[uint64]bool                // views this replica proposed in
	lastExec  uint64                         // height executed through
	committed map[[32]byte]bool
	// orphans holds proposals that arrived before their parent's, keyed by
	// the missing parent: consecutive views have different leaders, and
	// nothing orders two senders' datagrams.
	orphans map[[32]byte][]*block
	// queue holds client requests (with their trace refs, closed into
	// ordering spans at proposal time) and cuts block batches per the
	// shared hybrid policy, including through the committed-elsewhere
	// compaction filter.
	queue *replica.Queue
	// log holds committed blocks in the live watermark window; interval
	// compaction truncates it and prunes the tree maps below it.
	log seqlog.Log[*block]

	// metrics (nil-safe no-ops when unconfigured)
	mBlocks    *metrics.Counter
	mCkpt      *metrics.Counter
	mTruncated *metrics.Counter
	mVoteRej   *metrics.Counter
}

var genesisHash [32]byte

var hsKindNames = map[uint8]string{kindPropose: "propose", kindVote: "vote"}

// New creates and starts a HotStuff replica.
func New(cfg Config) *Replica {
	core := replica.NewCore(&cfg.Config, 128, hsKindNames)
	reg := cfg.Metrics
	// Genesis block at height 0 with a genesis QC at view 0.
	genesisQC := &qc{view: 0, block: genesisHash}
	r := &Replica{
		Core:       core,
		cfg:        cfg,
		blocks:     map[[32]byte]*block{genesisHash: {hash: genesisHash, view: 0, height: 0}},
		highQC:     genesisQC,
		lockedQC:   genesisQC,
		votes:      map[[32]byte]map[uint32][]byte{},
		orphans:    map[[32]byte][]*block{},
		voted:      map[uint64]bool{},
		proposed:   map[uint64]bool{},
		committed:  map[[32]byte]bool{},
		mBlocks:    reg.Counter("proto_block_commits_total"),
		mCkpt:      reg.Counter("proto_checkpoints_total"),
		mTruncated: reg.Counter("proto_truncated_slots_total"),
		mVoteRej:   reg.Counter("proto_sync_horizon_rejects_total"),
	}
	r.queue = core.NewQueue(cfg.Batch, r.tryPropose)
	if cfg.Restore != nil {
		r.restoreFromPersist(cfg.Restore)
	}
	r.Runtime().Start(r)
	return r
}

// Persist captures the replica's durable recovery state: the executed
// height and a state snapshot. Commits are locally final in HotStuff, so
// unlike the quorum-checkpoint protocols no certificate is needed. The
// state is frozen on the loop and encoded off it.
func (r *Replica) Persist() []byte {
	var height, ops uint64
	var state replication.Frozen
	r.Runtime().Call(func() { height, ops, state = r.lastExec, r.Executed(), r.Capture() })
	w := wire.NewWriter(64 + state.Size())
	w.U64(height)
	w.U64(ops)
	w.VarAppend(state.AppendTo)
	return w.Bytes()
}

// restoreFromPersist boots from a Persist blob. Called from New before
// the runtime starts.
func (r *Replica) restoreFromPersist(blob []byte) {
	rd := wire.NewReader(blob)
	height := rd.U64()
	ops := rd.U64()
	snap := append([]byte(nil), rd.VarBytes()...)
	if rd.Done() != nil {
		return
	}
	if r.InstallSnapshot(snap) != nil {
		return
	}
	r.lastExec = height
	r.SetExecuted(ops)
	r.log.Reset(height)
	r.SetWindow(r.log.Low(), r.log.High())
}

// LowWatermark returns the committed log's low watermark (last
// compaction boundary).
func (r *Replica) LowWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.Low() })
}

// HighWatermark returns the highest committed height retained in the
// log.
func (r *Replica) HighWatermark() uint64 {
	return replica.Read(r.Core, func() uint64 { return r.log.High() })
}

func (r *Replica) leaderOf(view uint64) int { return int(view) % r.cfg.N }

func blockHash(view, height uint64, parent, digest, qcBlock [32]byte) [32]byte {
	w := wire.NewWriter(128)
	w.Raw([]byte("hs-block"))
	w.U64(view)
	w.U64(height)
	w.Bytes32(parent)
	w.Bytes32(digest)
	w.Bytes32(qcBlock)
	return sha256.Sum256(w.Bytes())
}

func voteBody(view uint64, hash [32]byte, replica uint32) []byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("hs-vote"))
	w.U64(view)
	w.Bytes32(hash)
	w.U32(replica)
	return w.Bytes()
}

func proposeBody(view uint64, hash [32]byte) []byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("hs-prop"))
	w.U64(view)
	w.Bytes32(hash)
	return w.Bytes()
}

// --- verify stage (worker goroutines) --------------------------------------

type evRequest struct{ req *replication.Request }

// evPropose carries a fully decoded block whose leader authenticator,
// batch digest, block hash and justify QC were all verified off-loop.
type evPropose struct{ b *block }

type evVote struct {
	replica uint32
	view    uint64
	hash    [32]byte
	tag     []byte
}

// VerifyPacket implements runtime.Handler.
func (r *Replica) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if !r.CountMsg(pkt) {
		return nil
	}
	switch pkt[0] {
	case replication.KindRequest:
		if req := r.VerifyRequest(pkt[1:]); req != nil {
			return evRequest{req: req}
		}
		return nil
	case kindPropose:
		b := r.verifyPropose(pkt[1:])
		if b == nil {
			return nil
		}
		return evPropose{b: b}
	case kindVote:
		rd := wire.NewReader(pkt[1:])
		replica := rd.U32()
		view := rd.U64()
		hash := rd.Bytes32()
		tag := append([]byte(nil), rd.VarBytes()...)
		if rd.Done() != nil || int(replica) >= r.cfg.N {
			return nil
		}
		if !r.cfg.Auth.VerifyVector(int(replica), voteBody(view, hash, replica), tag) {
			r.AuthFail.Inc()
			return nil
		}
		return evVote{replica: replica, view: view, hash: hash, tag: tag}
	}
	return nil
}

// verifyPropose decodes and fully authenticates a proposal: every check
// here depends only on the packet and the key material, never on the
// block tree, which apply consults afterwards.
func (r *Replica) verifyPropose(pkt []byte) *block {
	rd := wire.NewReader(pkt)
	body := rd.VarBytes()
	tag := append([]byte(nil), rd.VarBytes()...)
	view := rd.U64()
	height := rd.U64()
	parent := rd.Bytes32()
	digest := rd.Bytes32()
	reqs, ok := batch.Unmarshal(rd)
	if !ok {
		return nil
	}
	qcView := rd.U64()
	qcBlock := rd.Bytes32()
	np := rd.U32()
	if rd.Err() != nil || np > uint32(r.cfg.N) {
		return nil
	}
	parts := make([]part, np)
	for i := range parts {
		parts[i].Replica = rd.U32()
		parts[i].Tag = append([]byte(nil), rd.VarBytes()...)
	}
	if rd.Done() != nil {
		return nil
	}
	br := wire.NewReader(body)
	if !br.Prefix("hs-prop") {
		return nil
	}
	bView := br.U64()
	bHash := br.Bytes32()
	if br.Done() != nil || bView != view {
		return nil
	}
	if batch.Digest(reqs) != digest {
		return nil
	}
	if blockHash(view, height, parent, digest, qcBlock) != bHash {
		return nil
	}
	if !r.cfg.Auth.VerifyVector(r.leaderOf(view), body, tag) {
		return nil
	}
	j := &qc{view: qcView, block: qcBlock, parts: parts}
	if !r.validQC(j) {
		return nil
	}
	return &block{hash: bHash, view: view, height: height, parent: parent,
		digest: digest, batch: reqs, justify: j}
}

// ApplyEvent implements runtime.Handler.
func (r *Replica) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	switch e := ev.(type) {
	case evRequest:
		r.onRequest(e.req)
	case evPropose:
		r.onPropose(e.b)
	case evVote:
		r.onVote(e)
	}
}

// --- apply stage (loop goroutine) ------------------------------------------

func (r *Replica) onRequest(req *replication.Request) {
	if r.Admit(req) {
		r.queue.Add(req)
		r.tryPropose()
	}
}

// tryPropose proposes a block if this replica leads the view after
// the highest QC and has something to propose (requests, or uncommitted
// blocks that need the pipeline flushed).
func (r *Replica) tryPropose() {
	view := r.highQC.view + 1
	if r.leaderOf(view) != r.cfg.Self || r.proposed[view] {
		return
	}
	parent := r.blocks[r.highQC.block]
	if parent == nil {
		return // the certified block is still in flight; its arrival retries
	}
	// Filter requests that other leaders already committed.
	r.queue.Filter(func(req *replication.Request) bool {
		fresh, _ := r.Table.Check(req.Client, req.ReqID)
		return fresh && r.queue.Queued(req)
	})
	needFlush := r.uncommittedAbove(r.highQC.block)
	now := time.Now()
	var cut batch.Batch
	if needFlush {
		// The pipeline needs a proposal to make progress: ship whatever
		// is queued, even an empty batch.
		cut, _ = r.queue.Flush(now)
	} else {
		var ok bool
		cut, ok = r.queue.Cut(now)
		if !ok {
			return
		}
	}
	cut.EndOrder(r.Runtime().Tracer(), view)

	digest := batch.Digest(cut.Reqs)
	h := blockHash(view, parent.height+1, parent.hash, digest, r.highQC.block)
	b := &block{
		hash: h, view: view, height: parent.height + 1,
		parent: parent.hash, digest: digest, batch: cut.Reqs, justify: r.highQC,
	}
	r.blocks[h] = b
	r.proposed[view] = true

	body := proposeBody(view, h)
	w := wire.NewWriter(1024)
	w.U8(kindPropose)
	w.VarBytes(body)
	w.VarBytes(r.cfg.Auth.TagVector(body))
	w.U64(view)
	w.U64(b.height)
	w.Bytes32(b.parent)
	w.Bytes32(b.digest)
	batch.MarshalInto(w, cut.Reqs)
	// justify QC
	w.U64(b.justify.view)
	w.Bytes32(b.justify.block)
	w.U32(uint32(len(b.justify.parts)))
	for _, p := range b.justify.parts {
		w.U32(p.Replica)
		w.VarBytes(p.Tag)
	}
	r.Broadcast(w.Bytes())
	// The proposer processes its own block (votes, commit rule).
	r.processBlock(b)
}

// uncommittedAbove reports whether the chain tip has blocks that
// still need pipeline progress to commit.
func (r *Replica) uncommittedAbove(tip [32]byte) bool {
	b := r.blocks[tip]
	return b != nil && b.height > r.lastExec
}

func (r *Replica) onPropose(b *block) {
	for work := []*block{b}; len(work) > 0; work = work[1:] {
		if b := work[0]; r.adopt(b) {
			work = append(work, r.orphans[b.hash]...)
			delete(r.orphans, b.hash)
		}
	}
}

// maxOrphans bounds the proposals held per missing parent. Two is what
// honest leaders produce (a timed-out view's block and its successor's,
// both carrying the parent's QC); the slack is for a leader that
// equivocates.
const maxOrphans = 4

// adopt adds b to the block tree and processes it, or, if its
// certified parent has not arrived, holds it until onPropose sees the
// parent. It reports whether b was added.
func (r *Replica) adopt(b *block) bool {
	if _, dup := r.blocks[b.hash]; dup {
		return false
	}
	if b.parent != b.justify.block {
		return false // chained HotStuff: blocks extend the justified block
	}
	pb := r.blocks[b.parent]
	if pb == nil {
		held := r.orphans[b.parent]
		for _, o := range held {
			if o.hash == b.hash {
				return false
			}
		}
		if len(held) < maxOrphans {
			r.orphans[b.parent] = append(held, b)
		}
		return false
	}
	if pb.height+1 != b.height {
		return false
	}
	r.blocks[b.hash] = b
	// De-queue requests carried by the block.
	for _, req := range b.batch {
		r.queue.Done(req)
	}
	r.processBlock(b)
	return true
}

// validQC verifies a quorum certificate (the genesis QC at view 0 is
// axiomatically valid). It reads only immutable config and key material,
// so verification workers call it off-loop.
func (r *Replica) validQC(q *qc) bool {
	if q.view == 0 && q.block == genesisHash {
		return true
	}
	seen := map[uint32]bool{}
	valid := 0
	for _, p := range q.parts {
		if int(p.Replica) >= r.cfg.N || seen[p.Replica] {
			continue
		}
		if !r.cfg.Auth.VerifyVector(int(p.Replica), voteBody(q.view, q.block, p.Replica), p.Tag) {
			continue
		}
		seen[p.Replica] = true
		valid++
	}
	return valid >= 2*r.cfg.F+1
}

// processBlock applies the HotStuff state rules to a new block:
// update highQC/lockedQC, run the three-chain commit rule, vote.
func (r *Replica) processBlock(b *block) {
	// Update the highest QC from the block's justify.
	if b.justify.view > r.highQC.view {
		r.highQC = b.justify
	}
	// Two-chain: lock the grandparent QC.
	if jb := r.blocks[b.justify.block]; jb != nil && jb.justify != nil && jb.justify.view > r.lockedQC.view {
		r.lockedQC = jb.justify
	}
	// Three-chain commit rule: b ← b1 ← b2 with consecutive heights.
	if b1 := r.blocks[b.justify.block]; b1 != nil && b1.justify != nil {
		if b2 := r.blocks[b1.justify.block]; b2 != nil && b1.parent == b2.hash && b.parent == b1.hash &&
			b1.height == b2.height+1 && b.height == b1.height+1 {
			r.commit(b2)
		}
	}
	// SafeNode: vote once per view, for blocks extending the locked block.
	if !r.voted[b.view] && r.safeNode(b) {
		r.voted[b.view] = true
		vb := voteBody(b.view, b.hash, uint32(r.cfg.Self))
		vt := r.cfg.Auth.TagVector(vb)
		next := r.leaderOf(b.view + 1)
		w := wire.NewWriter(128)
		w.U8(kindVote)
		w.U32(uint32(r.cfg.Self))
		w.U64(b.view)
		w.Bytes32(b.hash)
		w.VarBytes(vt)
		if next == r.cfg.Self {
			r.recordVote(b.view, b.hash, uint32(r.cfg.Self), vt)
		} else {
			r.Send(r.cfg.Members[next], w.Bytes())
		}
	}
	r.tryPropose()
}

// safeNode is the HotStuff voting rule.
func (r *Replica) safeNode(b *block) bool {
	if b.justify.view > r.lockedQC.view {
		return true // liveness rule
	}
	// Safety rule: b extends the locked block.
	h := b.parent
	for {
		if h == r.lockedQC.block {
			return true
		}
		pb := r.blocks[h]
		if pb == nil || pb.height == 0 {
			return h == r.lockedQC.block
		}
		h = pb.parent
	}
}

func (r *Replica) onVote(e evVote) {
	r.recordVote(e.view, e.hash, e.replica, e.tag)
}

func (r *Replica) recordVote(view uint64, hash [32]byte, replica uint32, tag []byte) {
	if view < r.highQC.view {
		// A QC at or above this view already formed: the vote can never
		// contribute to a new highQC, so recording it would only grow the
		// vote map (a Byzantine replica could mint one per packet).
		r.mVoteRej.Inc()
		return
	}
	m := r.votes[hash]
	if m == nil {
		m = map[uint32][]byte{}
		r.votes[hash] = m
	}
	m[replica] = tag
	if len(m) >= 2*r.cfg.F+1 && view >= r.highQC.view {
		parts := make([]part, 0, len(m))
		for rep, t := range m {
			parts = append(parts, part{Replica: rep, Tag: t})
		}
		if view+1 > r.highQC.view {
			r.highQC = &qc{view: view, block: hash, parts: parts}
		}
		r.tryPropose()
	}
}

// commit executes a committed block and all uncommitted ancestors,
// in height order.
func (r *Replica) commit(b *block) {
	if r.committed[b.hash] || b.height <= r.lastExec {
		return
	}
	// Collect the ancestor chain down to the last executed height.
	var chain []*block
	cur := b
	for cur != nil && cur.height > r.lastExec && !r.committed[cur.hash] {
		chain = append(chain, cur)
		cur = r.blocks[cur.parent]
	}
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		r.committed[blk.hash] = true
		r.lastExec = blk.height
		r.mBlocks.Inc()
		r.Trace().Record(tkHSCommit, blk.height, blk.view)
		for _, req := range blk.batch {
			if rep, _ := r.ExecuteReply(req, replication.Reply{View: blk.view, Slot: blk.height}); rep != nil {
				r.queue.Done(req)
			}
		}
		r.log.Append(blk)
		r.SetWindow(r.log.Low(), r.log.High())
		if blk.height%uint64(r.cfg.CheckpointInterval) == 0 {
			r.compact(blk)
		}
	}
}

// compact prunes everything below a committed interval boundary.
// Three-chain commits are irrevocable, so — unlike PBFT or Zyzzyva — no
// checkpoint vote exchange is needed before discarding history: local
// finality is the stability rule.
func (r *Replica) compact(b *block) {
	r.mCkpt.Inc()
	dropped := r.log.TruncateTo(b.height)
	r.mTruncated.Add(uint64(dropped))
	for h, blk := range r.blocks {
		if blk.height < b.height {
			delete(r.blocks, h)
			delete(r.committed, h)
			delete(r.votes, h)
		}
	}
	// Vote sets whose block never arrived are stale or forged by now.
	for h := range r.votes {
		if _, ok := r.blocks[h]; !ok {
			delete(r.votes, h)
		}
	}
	for h, held := range r.orphans {
		live := held[:0]
		for _, o := range held {
			if o.view > b.view {
				live = append(live, o)
			}
		}
		if r.orphans[h] = live; len(live) == 0 {
			delete(r.orphans, h)
		}
	}
	for v := range r.voted {
		if v < b.view {
			delete(r.voted, v)
		}
	}
	for v := range r.proposed {
		if v < b.view {
			delete(r.proposed, v)
		}
	}
	r.SetWindow(r.log.Low(), r.log.High())
}
