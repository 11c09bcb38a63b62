package aom

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/crypto/siphash"
	"neobft/internal/metrics"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Flight-recorder event kinds for rare receiver-side events.
var (
	tkAOMGap        = metrics.RegisterTraceKind("aom_gap")         // a=seq
	tkAOMForcedDrop = metrics.RegisterTraceKind("aom_forced_drop") // a=seq
	tkAOMLaneFail   = metrics.RegisterTraceKind("aom_lane_fail")   // a=seq
	tkAOMSigFail    = metrics.RegisterTraceKind("aom_sig_fail")    // a=seq
)

// Delivery is one event handed to the application: either an aom message
// (with its ordering certificate) or a drop-notification for a gap in
// the sequence.
type Delivery struct {
	Epoch   uint32
	Seq     uint64
	Dropped bool
	Payload []byte
	Cert    *OrderingCert // nil when Dropped
	// Decoded is the owner's PreVerified.Decoded for the packet delivered,
	// or nil when it had none.
	Decoded any
}

// DeliverFunc consumes deliveries in sequence-number order. It is invoked
// from the receiver's packet-processing goroutine.
type DeliverFunc func(Delivery)

// EpochConfig carries the per-epoch credentials a receiver needs,
// distributed by the configuration service.
type EpochConfig struct {
	Epoch uint32
	// HMACKey is this receiver's lane key (aom-hm).
	HMACKey siphash.HalfKey
	// SwitchPub is the sequencer's signing key (aom-pk).
	SwitchPub secp256k1.PublicKey
}

// ReceiverConfig configures the receive side of libAOM for one group
// member.
type ReceiverConfig struct {
	Group   uint32
	Variant wire.AuthKind
	// SelfIndex is this receiver's position in the group member list.
	SelfIndex int
	// Members lists all receiver node IDs (used for the confirm
	// exchange in Byzantine mode and for certificate parameters).
	Members []transport.NodeID
	// F is the fault threshold; Byzantine mode needs 2F+1 matching
	// confirms before delivery (§4.2).
	F int
	// Byzantine enables the equivocation-tolerant delivery rule.
	Byzantine bool
	// Auth signs and verifies confirm messages (Byzantine mode).
	Auth auth.Authenticator
	// Conn sends confirm messages to other receivers (Byzantine mode).
	Conn transport.Conn
	// Deliver receives ordered deliveries.
	Deliver DeliverFunc
	// ConfirmBatch caps how many confirm entries accumulate before a
	// flush (Byzantine mode). Default 1 (flush immediately).
	ConfirmBatch int
	// ConfirmFlushEvery, if nonzero, starts a background flusher that
	// sends pending confirms at this interval, letting batches form
	// under load ("batch processing confirm messages", §6.2).
	ConfirmFlushEvery time.Duration
	// Metrics, when non-nil, receives the receiver's aom_* counters and
	// flight-recorder events (shared with the owning replica's registry).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a zero-duration delivery-marker span
	// (with the aom sequence number) for each ordered delivery that
	// happens while a sampled trace context is active on the tracer.
	Tracer *tracing.Tracer
}

// confirmMagic tags confirm packets on the wire.
const confirmMagic uint16 = 0xA0B2

// authPkt is an authenticated, not-yet-delivered packet. Its header and
// payload are views into the packet it arrived in.
type authPkt struct {
	hdr     *wire.AOMHeader
	payload []byte
	vector  []byte      // full HMAC vector (aom-hm)
	links   []ChainLink // chain suffix to a verified signature (aom-pk, chain-authenticated)
	decoded any         // PreVerified.Decoded, handed back in the Delivery
}

// hmAsm assembles the subgroup packets of one sequence number when the
// group spans more than one subgroup.
type hmAsm struct {
	authPkt
	parts [][]byte // lane bytes by subgroup; nil until that part arrives
	got   int      // parts that arrived
	ownOK bool
}

// Receiver is the receive side of libAOM for one group member.
type Receiver struct {
	cfg ReceiverConfig

	mu      sync.Mutex
	epoch   uint32
	hmKey   siphash.HalfKey
	pk      *secp256k1.TableVerifier
	nextSeq uint64

	ready map[uint64]*authPkt   // authenticated, awaiting ordered delivery
	asm   map[uint64]*hmAsm     // aom-hm partial vectors
	pend  map[uint64][]*authPkt // aom-pk unsigned and unauthenticated: distinct copies per seq

	// Byzantine mode state.
	confirms   map[uint64]map[[32]byte]map[int][]byte // seq → hash → sender → tag
	ownConfirm map[uint64][32]byte                    // hash this receiver confirmed
	bnOK       map[uint64]bool                        // quorum reached for local copy
	bnForced   map[uint64]bool                        // quorum on a conflicting copy → forced drop
	pendingCf  []cfEntry
	flushStop  chan struct{}
	flushOnce  sync.Once

	// deliveries is collectDeliveriesLocked's buffer, reused by every
	// packet. Deliveries run on the one processing goroutine, so no
	// second collection starts while the first is being delivered.
	deliveries []Delivery

	// counters
	delivered uint64
	dropped   uint64
	cfSent    uint64
	cfPackets uint64

	// metrics (nil-safe: all remain nil no-ops without a registry)
	mDelivered *metrics.Counter
	mDropped   *metrics.Counter
	mGaps      *metrics.Counter
	mCfEntries *metrics.Counter
	mCfPackets *metrics.Counter
	mLaneFail  *metrics.Counter
	mSigFail   *metrics.Counter
}

type cfEntry struct {
	seq  uint64
	hash [32]byte
	tag  []byte
}

// NewReceiver creates a receiver with the given epoch credentials
// installed.
func NewReceiver(cfg ReceiverConfig, ep EpochConfig) *Receiver {
	if cfg.ConfirmBatch <= 0 {
		cfg.ConfirmBatch = 1
	}
	r := &Receiver{cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		r.mDelivered = reg.Counter("aom_delivered_total")
		r.mDropped = reg.Counter("aom_dropped_total")
		r.mGaps = reg.Counter("aom_gap_total")
		r.mCfEntries = reg.Counter("aom_confirm_entries_total")
		r.mCfPackets = reg.Counter("aom_confirm_packets_total")
		r.mLaneFail = reg.Counter("aom_lane_fail_total")
		r.mSigFail = reg.Counter("aom_sig_fail_total")
		reg.Func("aom_reorder_pending", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.ready) + len(r.asm) + len(r.pend))
		})
	}
	r.resetEpochLocked(ep)
	if cfg.Byzantine && cfg.ConfirmFlushEvery > 0 {
		r.flushStop = make(chan struct{})
		go r.flushLoop(cfg.ConfirmFlushEvery)
	}
	return r
}

// Close stops the background confirm flusher, if any.
func (r *Receiver) Close() {
	if r.flushStop != nil {
		r.flushOnce.Do(func() { close(r.flushStop) })
	}
}

// InstallEpoch switches to a new epoch (sequencer failover). All pending
// state from the old epoch is discarded; the sequence restarts at 1.
func (r *Receiver) InstallEpoch(ep EpochConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetEpochLocked(ep)
}

func (r *Receiver) resetEpochLocked(ep EpochConfig) {
	r.epoch = ep.Epoch
	r.hmKey = ep.HMACKey
	if r.cfg.Variant == wire.AuthPK {
		r.pk = secp256k1.NewTableVerifier(ep.SwitchPub)
	}
	r.nextSeq = 1
	r.ready = make(map[uint64]*authPkt)
	r.asm = make(map[uint64]*hmAsm)
	r.pend = make(map[uint64][]*authPkt)
	r.confirms = make(map[uint64]map[[32]byte]map[int][]byte)
	r.ownConfirm = make(map[uint64][32]byte)
	r.bnOK = make(map[uint64]bool)
	r.bnForced = make(map[uint64]bool)
	r.pendingCf = nil
}

// Epoch returns the receiver's current epoch.
func (r *Receiver) Epoch() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// NextSeq returns the next sequence number the receiver expects to
// deliver.
func (r *Receiver) NextSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq
}

// SkipTo marks multicast sequence numbers at or below seq as already
// consumed in the current epoch, so the next expected delivery is
// seq+1. A replica restarting from a stable checkpoint uses it to
// resume the ordered stream where the checkpoint left off rather than
// re-declaring every slot since epoch start as a gap.
func (r *Receiver) SkipTo(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq >= r.nextSeq {
		r.nextSeq = seq + 1
	}
}

// Stats returns (delivered messages, drop-notifications, confirms sent).
func (r *Receiver) Stats() (delivered, dropped, confirms uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delivered, r.dropped, r.cfSent
}

// ConfirmPackets returns how many confirm *packets* were sent; with
// batching this is smaller than the number of confirm entries.
func (r *Receiver) ConfirmPackets() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfPackets
}

// PKVerifier returns the current epoch's sequencer-signature verifier
// (nil unless the variant is aom-pk), so the owner's CertVerifier can
// share its precomputed table instead of building another.
func (r *Receiver) PKVerifier() *secp256k1.TableVerifier {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pk
}

// PreVerified carries the expensive, state-independent checks of one
// packet, computed off the receiver's processing thread (by a runtime
// verification worker). Verdicts that depend on epoch credentials record
// the epoch they were computed under; if the epoch changed by apply
// time, the receiver recomputes inline.
type PreVerified struct {
	// Hdr and Payload are the decoded aom header/payload (nil for
	// confirm packets).
	Hdr     *wire.AOMHeader
	Payload []byte
	// Epoch is the epoch the lane/signature verdicts were computed under.
	Epoch uint32
	// DigestOK records the payload-digest check (epoch-independent).
	DigestOK bool
	// LaneOK is the own-lane SipHash verdict for an aom-hm packet whose
	// subgroup covers this receiver (nil otherwise).
	LaneOK *bool
	// Decoded is the owner's own decoding of Payload, made beside these
	// checks (NeoBFT: the client request and its MAC verdict). libAOM never
	// reads it; it travels with the packet and comes back in the packet's
	// Delivery, unless the epoch changed before the packet was handled.
	Decoded any
	// SigOK is the sequencer-signature verdict for a signed aom-pk
	// packet (nil otherwise). It is true for a signed packet that Suffix
	// authenticates, whatever its own signature bytes.
	SigOK *bool
	// Suffix, when non-empty, authenticates an aom-pk packet, signed or
	// not, through the hash chain (§4.4): the headers Seq+1 .. s of its
	// batch, where s is a packet whose signature PreVerifyBatch verified.
	// The packets of one chain-linked run share one backing array.
	Suffix []ChainLink
	// Confirm marks a confirm packet; ConfirmOK holds per-entry
	// authenticator verdicts (epoch-independent: the verified input is
	// taken entirely from the packet).
	Confirm   bool
	ConfirmOK []bool
}

// PreVerify runs every check of pkt that does not need the receiver's
// ordering state: packet decoding, the payload digest, the receiver's
// own HMAC lane (aom-hm), the sequencer signature (aom-pk), and confirm
// authenticators. It is safe to call from concurrent worker goroutines.
// The second return is false if the packet does not belong to libAOM.
func (r *Receiver) PreVerify(pkt []byte) (*PreVerified, bool) {
	r.mu.Lock()
	epoch, hmKey, pk := r.epoch, r.hmKey, r.pk
	r.mu.Unlock()
	pv, sig, needSig := r.preVerifyOne(pkt, epoch, hmKey)
	if needSig {
		h := pv.Hdr.PacketHash()
		pv.SigOK = verdict(pk != nil && pk.Verify(h[:], sig))
	}
	return pv, pv != nil
}

// maxSigBatch sizes PreVerifyBatch's stack buffers to the replica
// runtime's largest verify drain (runtime.maxVerifyBatch); a larger
// batch falls back to heap buffers.
const maxSigBatch = 32

// PreVerifyBatch is PreVerify over a batch of packets that verifies one
// sequencer signature per chain-linked run of aom-pk packets instead of
// one per packet (§4.4: receivers "verify the rest through the hash
// chain"). It orders the batch's decodable aom-pk packets by sequence
// number and splits them into maximal runs in which each packet's Chain
// is its predecessor's PacketHash. One secp256k1 batch verification
// checks the highest signed packet of every run; a verified signature
// authenticates every earlier packet of its run, which then carries its
// Suffix up to that packet. A run whose head fails steps down to its
// next signed packet in another batched round, so one corrupt signature
// never rejects the intact packets below it. out[i] is nil when pkts[i]
// does not belong to libAOM. Safe to call from concurrent workers.
func (r *Receiver) PreVerifyBatch(pkts [][]byte) []*PreVerified {
	r.mu.Lock()
	epoch, hmKey, pk := r.epoch, r.hmKey, r.pk
	r.mu.Unlock()

	var candBuf [maxSigBatch]pkCand
	cands := candBuf[:0]
	out := make([]*PreVerified, len(pkts))
	for i, pkt := range pkts {
		pv, sig, needSig := r.preVerifyOne(pkt, epoch, hmKey)
		out[i] = pv
		switch {
		case pv == nil || !pv.DigestOK || r.cfg.Variant != wire.AuthPK:
		case pk == nil:
			if needSig {
				pv.SigOK = verdict(false)
			}
		default:
			cands = append(cands, pkCand{pv: pv, hash: pv.Hdr.PacketHash(), sig: sig, signed: needSig, dupOf: -1})
		}
	}
	verifyRuns(pk, cands)
	return out
}

// pkCand is one aom-pk packet of a PreVerifyBatch call.
type pkCand struct {
	pv     *PreVerified
	hash   [32]byte            // PacketHash: what the next packet's Chain must be
	sig    secp256k1.Signature // meaningful when signed
	signed bool                // carries a decodable signature
	dupOf  int                 // index of an identical earlier copy, or -1
	inRun  bool
}

// verifyRuns gives every candidate its verdict: identical
// copies collapse into one, the rest form chain-linked runs, and rounds
// of one batch verification each walk every run down from its highest
// signed packet until a signature verifies or the run has none left.
func verifyRuns(pk *secp256k1.TableVerifier, c []pkCand) {
	slices.SortStableFunc(c, func(a, b pkCand) int { return cmp.Compare(a.pv.Hdr.Seq, b.pv.Hdr.Seq) })
	for i := range c {
		for j := i - 1; j >= 0 && c[j].pv.Hdr.Seq == c[i].pv.Hdr.Seq; j-- {
			if c[j].dupOf < 0 && sameCopy(&c[j], &c[i]) {
				c[i].dupOf = j
				break
			}
		}
	}

	// order lists candidate indices run after run, each run in
	// descending seq; run k is order[starts[k]:starts[k+1]], and next[k]
	// is the position in order of its signature to verify next (-1: done).
	var orderBuf, nextBuf [maxSigBatch]int
	var startBuf [maxSigBatch + 1]int
	order, starts, next := orderBuf[:0], startBuf[:0], nextBuf[:0]
	for top := len(c) - 1; top >= 0; top-- {
		if c[top].dupOf >= 0 || c[top].inRun {
			continue
		}
		start := len(order)
		for i := top; i >= 0; i = below(c, i) {
			c[i].inRun = true
			order = append(order, i)
		}
		starts = append(starts, start)
		next = append(next, nextSigned(c, order, start, len(order)))
	}
	starts = append(starts, len(order))

	var digestBuf [maxSigBatch][32]byte
	var sigBuf [maxSigBatch]secp256k1.Signature
	var runBuf [maxSigBatch]int
	var okBuf [maxSigBatch]bool
	for {
		digests, sigs, runs := digestBuf[:0], sigBuf[:0], runBuf[:0]
		for k, p := range next {
			if p >= 0 {
				digests = append(digests, c[order[p]].hash)
				sigs = append(sigs, c[order[p]].sig)
				runs = append(runs, k)
			}
		}
		if len(runs) == 0 {
			break
		}
		oks := okBuf[:]
		if len(runs) > len(oks) {
			oks = make([]bool, len(runs))
		}
		oks = oks[:len(runs)]
		pk.VerifyBatchInto(oks, digests, sigs)
		for j, k := range runs {
			p, end := next[k], starts[k+1]
			ok := oks[j]
			c[order[p]].pv.SigOK = verdict(ok)
			if ok {
				chainAuthenticate(c, order[p:end])
				next[k] = -1
			} else {
				next[k] = nextSigned(c, order, p+1, end)
			}
		}
	}
	for i := range c {
		if d := c[i].dupOf; d >= 0 {
			c[i].pv.SigOK, c[i].pv.Suffix = c[d].pv.SigOK, c[d].pv.Suffix
		}
	}
}

// sameCopy reports whether two candidates at one seq are the same packet.
func sameCopy(a, b *pkCand) bool {
	return a.hash == b.hash && a.pv.Hdr.Signed == b.pv.Hdr.Signed && bytes.Equal(a.pv.Hdr.Auth, b.pv.Hdr.Auth)
}

// below returns the candidate that extends candidate i's run downward:
// one not yet in a run, at seq-1, in the same group and epoch, whose
// PacketHash is i's Chain. It returns -1 if there is none.
func below(c []pkCand, i int) int {
	h := c[i].pv.Hdr
	for j := i - 1; j >= 0 && c[j].pv.Hdr.Seq+1 >= h.Seq; j-- {
		if d := &c[j]; d.pv.Hdr.Seq+1 == h.Seq && d.dupOf < 0 && !d.inRun && d.hash == h.Chain &&
			d.pv.Hdr.Group == h.Group && d.pv.Hdr.Epoch == h.Epoch {
			return j
		}
	}
	return -1
}

// nextSigned returns the first position in order[from:to] whose packet
// carries a decodable signature, or -1.
func nextSigned(c []pkCand, order []int, from, to int) int {
	for p := from; p < to; p++ {
		if c[order[p]].signed {
			return p
		}
	}
	return -1
}

// chainAuthenticate authenticates every packet of run (candidate indices
// in descending seq) below run[0], whose signature verified, through the
// hash chain.
func chainAuthenticate(c []pkCand, run []int) {
	links := newRunLinks(len(run)-1, nil)
	above := c[run[0]].pv.Hdr
	for j, i := range run[1:] {
		pv := c[i].pv
		pv.Suffix = links.below(len(run)-2-j, above)
		if pv.Hdr.Signed {
			pv.SigOK = verdict(true)
		}
		above = pv.Hdr
	}
}

// runLinks holds the certificate suffixes of one chain-linked run in one
// slice, filled from the authenticated head downward: a run of k packets
// costs one allocation and k links, where a suffix per packet would copy
// k²/2.
type runLinks []ChainLink

// newRunLinks makes room for the n links below a run's authenticated
// head, followed by tail, the head's own suffix.
func newRunLinks(n int, tail []ChainLink) runLinks {
	return append(make(runLinks, n, n+len(tail)), tail...)
}

// below records above as link i and returns the suffix of the packet
// just below it: above's link and every later one. Callers go down the
// run, i from n-1 to 0.
func (l runLinks) below(i int, above *wire.AOMHeader) []ChainLink {
	l[i] = ChainLink{Seq: above.Seq, Digest: above.Digest, Chain: above.Chain, Signed: above.Signed, Sig: above.Auth}
	return l[i:]
}

// preVerifyOne runs the state-independent checks of one packet under the
// given epoch credentials. For a signed aom-pk packet with a decodable
// signature it does NOT verify the signature; it returns (sig, true) so
// the caller can verify individually or batched.
func (r *Receiver) preVerifyOne(pkt []byte, epoch uint32, hmKey siphash.HalfKey) (pv *PreVerified, sig secp256k1.Signature, needSig bool) {
	if len(pkt) >= 2 && binary.LittleEndian.Uint16(pkt) == confirmMagic {
		pv = &PreVerified{Confirm: true}
		pv.ConfirmOK = r.preVerifyConfirm(pkt)
		return pv, sig, false
	}
	hdr, payload, err := wire.DecodeAOM(pkt)
	if err != nil || hdr.Kind == wire.AuthNone {
		return nil, sig, false
	}
	pv = &PreVerified{Hdr: hdr, Payload: payload}
	pv.DigestOK = hdr.Digest == wire.Digest(payload)
	if !pv.DigestOK {
		return pv, sig, false
	}
	pv.Epoch = epoch
	switch r.cfg.Variant {
	case wire.AuthHMAC:
		if int(hdr.Subgroup) == r.cfg.SelfIndex/4 {
			pv.LaneOK = verdict(laneMatches(hdr, hmKey, r.cfg.SelfIndex))
		}
	case wire.AuthPK:
		if hdr.Signed {
			s, err := secp256k1.DecodeSignature(hdr.Auth)
			if err != nil {
				pv.SigOK = verdict(false)
				return pv, sig, false
			}
			return pv, s, true
		}
	}
	return pv, sig, false
}

// verdicts are the two values a verdict pointer takes: recording a
// verdict allocates nothing. Nobody writes through them.
var verdicts = [2]bool{false, true}

func verdict(ok bool) *bool {
	if ok {
		return &verdicts[1]
	}
	return &verdicts[0]
}

// laneMatches recomputes this receiver's HMAC lane over the packet's
// AuthInput and compares it against the carried lane. Allocation-free.
func laneMatches(hdr *wire.AOMHeader, hmKey siphash.HalfKey, selfIndex int) bool {
	laneInSub := selfIndex % 4
	if len(hdr.Auth) < 4*(laneInSub+1) {
		return false
	}
	var in [wire.AuthInputSize]byte
	hdr.AuthInputInto(&in)
	want := siphash.Sum32(hmKey, in[:])
	return binary.LittleEndian.Uint32(hdr.Auth[4*laneInSub:]) == want
}

// preVerifyConfirm checks every entry's authenticator in a confirm
// packet. The verified input (group, epoch, seq, hash) comes entirely
// from the packet, so the verdicts hold under any receiver state.
func (r *Receiver) preVerifyConfirm(pkt []byte) []bool {
	rd := wire.NewReader(pkt)
	if rd.U16() != confirmMagic {
		return nil
	}
	group := rd.U32()
	epoch := rd.U32()
	sender := int(rd.U32())
	count := int(rd.U32())
	if rd.Err() != nil || count < 0 || count > 1<<16 ||
		sender < 0 || sender >= len(r.cfg.Members) || r.cfg.Auth == nil {
		return nil
	}
	out := make([]bool, 0, count)
	for i := 0; i < count; i++ {
		seq := rd.U64()
		hash := rd.Bytes32()
		tag := rd.VarBytes()
		if rd.Err() != nil {
			break
		}
		out = append(out, r.cfg.Auth.VerifyVector(sender, confirmInput(group, epoch, seq, hash), tag))
	}
	return out
}

// HandlePacket inspects a raw packet and consumes it if it belongs to
// libAOM (a stamped aom packet or a confirm message). It returns true if
// consumed. The owner demultiplexes all other traffic itself.
func (r *Receiver) HandlePacket(from transport.NodeID, pkt []byte) bool {
	return r.HandlePacketPre(from, pkt, nil)
}

// HandlePacketPre is HandlePacket with optional pre-verified verdicts
// from PreVerify. It must be called from the owner's single processing
// goroutine (the runtime loop); pre may be nil.
func (r *Receiver) HandlePacketPre(from transport.NodeID, pkt []byte, pre *PreVerified) bool {
	if len(pkt) >= 2 && binary.LittleEndian.Uint16(pkt) == confirmMagic {
		var oks []bool
		if pre != nil && pre.Confirm {
			oks = pre.ConfirmOK
		}
		r.handleConfirm(pkt, oks)
		return true
	}
	var hdr *wire.AOMHeader
	var payload []byte
	if pre != nil && pre.Hdr != nil {
		hdr, payload = pre.Hdr, pre.Payload
	} else {
		var err error
		hdr, payload, err = wire.DecodeAOM(pkt)
		if err != nil {
			return false
		}
	}
	if hdr.Kind == wire.AuthNone {
		return false // unstamped packet; not for receivers
	}
	r.handleAOM(hdr, payload, pre)
	return true
}

func (r *Receiver) handleAOM(hdr *wire.AOMHeader, payload []byte, pre *PreVerified) {
	r.mu.Lock()
	if hdr.Epoch != r.epoch || hdr.Kind != r.cfg.Variant || hdr.Group != r.cfg.Group {
		r.mu.Unlock()
		return
	}
	if hdr.Seq < r.nextSeq {
		r.mu.Unlock()
		return // already delivered or dropped
	}
	if pre != nil {
		if !pre.DigestOK {
			r.mu.Unlock()
			return
		}
		// Lane/signature verdicts are only valid for the epoch they were
		// computed under; on mismatch (epoch switched while the packet
		// was in the verification queue) fall back to inline checks.
		if pre.Epoch != r.epoch {
			pre = nil
		}
	} else if hdr.Digest != wire.Digest(payload) {
		r.mu.Unlock()
		return // corrupted or mismatched payload
	}
	p := &authPkt{hdr: hdr, payload: payload}
	var laneOK, sigOK *bool
	if pre != nil {
		laneOK, sigOK = pre.LaneOK, pre.SigOK
		p.links, p.decoded = pre.Suffix, pre.Decoded
	}
	switch r.cfg.Variant {
	case wire.AuthHMAC:
		r.handleHM(p, laneOK)
	case wire.AuthPK:
		r.handlePK(p, sigOK)
	}
	deliveries := r.collectDeliveriesLocked()
	cf := r.takeConfirmBatchLocked(false)
	r.mu.Unlock()

	r.sendConfirms(cf)
	r.deliver(deliveries)
}

// handleHM processes one aom-hm subgroup packet. laneOK, when non-nil,
// is the pre-verified own-lane verdict. A group of one subgroup needs no
// assembly: the packet's own Auth is the whole vector. Caller holds r.mu.
func (r *Receiver) handleHM(p *authPkt, laneOK *bool) {
	hdr := p.hdr
	nsub := int(hdr.NumSubgroups)
	if nsub == 0 || int(hdr.Subgroup) >= nsub {
		return
	}
	own := int(hdr.Subgroup) == r.cfg.SelfIndex/4
	if nsub == 1 {
		if own && r.laneOK(hdr, laneOK) {
			p.vector = hdr.Auth
			r.authenticated(p)
		}
		return
	}
	a := r.asm[hdr.Seq]
	if a == nil {
		a = &hmAsm{authPkt: *p, parts: make([][]byte, nsub)}
		r.asm[hdr.Seq] = a
	}
	if a.hdr.Digest != hdr.Digest || len(a.parts) != nsub {
		return // conflicting packet for the same seq; keep the first copy
	}
	if a.parts[hdr.Subgroup] != nil {
		return
	}
	a.parts[hdr.Subgroup] = hdr.Auth
	a.got++
	// Verify our own lane when the covering subgroup part arrives.
	if own {
		if !r.laneOK(hdr, laneOK) {
			delete(r.asm, hdr.Seq) // forged or truncated packet
			return
		}
		a.ownOK = true
	}
	if a.ownOK && a.got == nsub {
		a.vector = make([]byte, 0, 4*len(r.cfg.Members))
		for _, part := range a.parts {
			a.vector = append(a.vector, part...)
		}
		delete(r.asm, hdr.Seq)
		r.authenticated(&a.authPkt)
	}
}

// laneOK checks this receiver's lane of hdr, taking the pre-verified
// verdict when there is one, and counts a failure. Caller holds r.mu.
func (r *Receiver) laneOK(hdr *wire.AOMHeader, pre *bool) bool {
	if pre != nil && *pre || pre == nil && laneMatches(hdr, r.hmKey, r.cfg.SelfIndex) {
		return true
	}
	r.mLaneFail.Inc()
	r.cfg.Metrics.Recorder().Record(tkAOMLaneFail, hdr.Seq, 0)
	return false
}

// maxParkedCopies bounds the distinct copies of one unsigned aom-pk
// packet held at a sequence number, so that a forged copy arriving first
// cannot shut out the genuine one.
const maxParkedCopies = 4

// handlePK processes one aom-pk packet. sigOK, when non-nil, is the
// pre-verified sequencer-signature verdict; a non-empty p.links means a
// verification worker authenticated the packet through the hash chain
// (PreVerifyBatch). Caller holds r.mu.
func (r *Receiver) handlePK(p *authPkt, sigOK *bool) {
	hdr := p.hdr
	if r.ready[hdr.Seq] != nil {
		return
	}
	if len(p.links) == 0 && !hdr.Signed {
		r.park(p)
		return
	}
	if len(p.links) == 0 {
		ok := false
		if sigOK != nil {
			ok = *sigOK
		} else if sig, err := secp256k1.DecodeSignature(hdr.Auth); err == nil {
			h := hdr.PacketHash()
			ok = r.pk.Verify(h[:], sig)
		}
		if !ok {
			r.mSigFail.Inc()
			r.cfg.Metrics.Recorder().Record(tkAOMSigFail, hdr.Seq, 0)
			return
		}
	}
	delete(r.pend, hdr.Seq)
	r.authenticated(p)
	r.walkChainBack(p)
}

// park holds an unsigned aom-pk packet until a signed successor
// authenticates the chain, keeping each distinct copy so that the walk
// back can adopt the genuine one. Caller holds r.mu.
func (r *Receiver) park(p *authPkt) {
	hdr := p.hdr
	copies := r.pend[hdr.Seq]
	if len(copies) >= maxParkedCopies {
		return
	}
	for _, c := range copies {
		if c.hdr.Digest == hdr.Digest && c.hdr.Chain == hdr.Chain {
			return // a duplicate
		}
	}
	r.pend[hdr.Seq] = append(copies, p)
	// A late arrival whose successor is already authenticated joins its
	// chain now.
	if next := r.ready[hdr.Seq+1]; next != nil {
		r.walkChainBack(next)
	}
}

// walkChainBack authenticates the parked predecessors of an
// authenticated packet by validating the hash chain in reverse (§4.4).
// At each sequence number it adopts the parked copy whose PacketHash is
// the Chain of the packet above and discards the others as forged or
// stale. Caller holds r.mu.
func (r *Receiver) walkChainBack(from *authPkt) {
	// First find how far the chain reaches, moving each matching copy to
	// the front of its slot, so the suffixes take one allocation.
	n := 0
	for cur := from; cur.hdr.Seq > r.nextSeq; n++ {
		copies := r.pend[cur.hdr.Seq-1]
		i := slices.IndexFunc(copies, func(c *authPkt) bool { return c.hdr.PacketHash() == cur.hdr.Chain })
		if i < 0 {
			delete(r.pend, cur.hdr.Seq-1)
			break
		}
		copies[0], copies[i] = copies[i], copies[0]
		cur = copies[0]
	}
	if n == 0 {
		return
	}
	links := newRunLinks(n, from.links)
	for cur, i := from, n-1; i >= 0; i-- {
		prev := r.pend[cur.hdr.Seq-1][0]
		delete(r.pend, cur.hdr.Seq-1)
		prev.links = links.below(i, cur.hdr)
		r.authenticated(prev)
		cur = prev
	}
}

// authenticated admits a packet whose aom authenticator has been
// verified. Caller holds r.mu.
func (r *Receiver) authenticated(p *authPkt) {
	seq := p.hdr.Seq
	if seq < r.nextSeq || r.ready[seq] != nil {
		return
	}
	r.ready[seq] = p
	if r.cfg.Byzantine {
		hash := p.hdr.PacketHash()
		if _, sent := r.ownConfirm[seq]; !sent {
			r.ownConfirm[seq] = hash
			tag := r.cfg.Auth.TagVector(confirmInput(r.cfg.Group, r.epoch, seq, hash))
			r.storeConfirm(seq, hash, r.cfg.SelfIndex, tag)
			r.pendingCf = append(r.pendingCf, cfEntry{seq: seq, hash: hash, tag: tag})
			r.cfSent++
			r.mCfEntries.Inc()
		}
		r.checkQuorum(seq)
	}
}

// --- Byzantine-network confirm exchange (§4.2) -------------------------

func (r *Receiver) storeConfirm(seq uint64, hash [32]byte, sender int, tag []byte) {
	byHash := r.confirms[seq]
	if byHash == nil {
		byHash = make(map[[32]byte]map[int][]byte)
		r.confirms[seq] = byHash
	}
	bySender := byHash[hash]
	if bySender == nil {
		bySender = make(map[int][]byte)
		byHash[hash] = bySender
	}
	if _, dup := bySender[sender]; !dup {
		bySender[sender] = tag
	}
}

// checkQuorum updates BN deliverability for seq. Caller holds r.mu.
func (r *Receiver) checkQuorum(seq uint64) {
	need := 2*r.cfg.F + 1
	own, haveOwn := r.ownConfirm[seq]
	for hash, bySender := range r.confirms[seq] {
		if len(bySender) < need {
			continue
		}
		if haveOwn && hash == own {
			r.bnOK[seq] = true
		} else {
			// A quorum confirmed a conflicting copy (we were the
			// equivocation victim, or we missed the packet): our copy can
			// never be delivered. Treat as a drop; the application-level
			// protocol recovers the certified message from a peer.
			r.bnForced[seq] = true
		}
	}
}

// handleConfirm processes a confirm packet. oks, when non-nil, holds
// pre-verified per-entry authenticator verdicts (always valid: the
// verified input comes entirely from the packet).
func (r *Receiver) handleConfirm(pkt []byte, oks []bool) {
	rd := wire.NewReader(pkt)
	if rd.U16() != confirmMagic {
		return
	}
	group := rd.U32()
	epoch := rd.U32()
	sender := int(rd.U32())
	count := int(rd.U32())
	if rd.Err() != nil || count < 0 || count > 1<<16 {
		return
	}
	r.mu.Lock()
	if !r.cfg.Byzantine || group != r.cfg.Group || epoch != r.epoch ||
		sender < 0 || sender >= len(r.cfg.Members) || sender == r.cfg.SelfIndex {
		r.mu.Unlock()
		return
	}
	for i := 0; i < count; i++ {
		seq := rd.U64()
		hash := rd.Bytes32()
		tag := rd.VarBytes()
		if rd.Err() != nil {
			break
		}
		if seq < r.nextSeq {
			continue
		}
		var tagOK bool
		if i < len(oks) {
			tagOK = oks[i]
		} else {
			tagOK = r.cfg.Auth.VerifyVector(sender, confirmInput(group, epoch, seq, hash), tag)
		}
		if !tagOK {
			continue
		}
		r.storeConfirm(seq, hash, sender, append([]byte(nil), tag...))
		r.checkQuorum(seq)
	}
	deliveries := r.collectDeliveriesLocked()
	r.mu.Unlock()
	r.deliver(deliveries)
}

// takeConfirmBatchLocked returns pending confirm entries if a flush is
// due. Caller holds r.mu.
func (r *Receiver) takeConfirmBatchLocked(force bool) []cfEntry {
	if !r.cfg.Byzantine || len(r.pendingCf) == 0 {
		return nil
	}
	if !force && r.cfg.ConfirmFlushEvery > 0 && len(r.pendingCf) < r.cfg.ConfirmBatch {
		return nil // the background flusher will send it
	}
	batch := r.pendingCf
	r.pendingCf = nil
	return batch
}

func (r *Receiver) sendConfirms(batch []cfEntry) {
	if len(batch) == 0 {
		return
	}
	r.mu.Lock()
	epoch := r.epoch
	r.cfPackets++
	r.mCfPackets.Inc()
	r.mu.Unlock()
	w := wire.NewWriter(64 + len(batch)*96)
	w.U16(confirmMagic)
	w.U32(r.cfg.Group)
	w.U32(epoch)
	w.U32(uint32(r.cfg.SelfIndex))
	w.U32(uint32(len(batch)))
	for _, e := range batch {
		w.U64(e.seq)
		w.Bytes32(e.hash)
		w.VarBytes(e.tag)
	}
	pkt := w.Bytes()
	for i, m := range r.cfg.Members {
		if i == r.cfg.SelfIndex {
			continue
		}
		r.cfg.Conn.Send(m, pkt)
	}
}

func (r *Receiver) flushLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.flushStop:
			return
		case <-t.C:
			r.mu.Lock()
			batch := r.takeConfirmBatchLocked(true)
			r.mu.Unlock()
			r.sendConfirms(batch)
		}
	}
}

// --- ordered delivery ---------------------------------------------------

// collectDeliveriesLocked advances nextSeq as far as possible, producing
// in-order deliveries and drop-notifications in the receiver's reused
// buffer. A gap is declared only when a later packet is deliverable (the
// gap is then permanent for this receiver). Caller holds r.mu.
func (r *Receiver) collectDeliveriesLocked() []Delivery {
	out := r.deliveries[:0]
	for {
		// Deliver the head if it is ready.
		if p := r.ready[r.nextSeq]; p != nil && r.deliverableLocked(r.nextSeq) {
			cert := r.certFor(p)
			delete(r.ready, r.nextSeq)
			r.cleanupSeqLocked(r.nextSeq)
			out = append(out, Delivery{Epoch: r.epoch, Seq: r.nextSeq, Payload: p.payload, Cert: cert, Decoded: p.decoded})
			if trace, parent := r.cfg.Tracer.Active(); trace != 0 {
				r.cfg.Tracer.Span(r.cfg.Tracer.SpanID(), trace, parent,
					tracing.PhaseDeliver, time.Now(), 0, r.nextSeq, 0)
			}
			r.delivered++
			r.mDelivered.Inc()
			r.nextSeq++
			continue
		}
		if r.bnForced[r.nextSeq] {
			r.cleanupSeqLocked(r.nextSeq)
			delete(r.ready, r.nextSeq)
			out = append(out, Delivery{Epoch: r.epoch, Seq: r.nextSeq, Dropped: true})
			r.dropped++
			r.mDropped.Inc()
			r.cfg.Metrics.Recorder().Record(tkAOMForcedDrop, r.nextSeq, uint64(r.epoch))
			r.nextSeq++
			continue
		}
		// Declare a gap only if something after nextSeq is deliverable.
		if !r.laterDeliverableLocked(r.nextSeq) {
			break
		}
		r.cleanupSeqLocked(r.nextSeq)
		out = append(out, Delivery{Epoch: r.epoch, Seq: r.nextSeq, Dropped: true})
		r.dropped++
		r.mDropped.Inc()
		r.mGaps.Inc()
		r.cfg.Metrics.Recorder().Record(tkAOMGap, r.nextSeq, uint64(r.epoch))
		r.nextSeq++
	}
	r.deliveries = out
	return out
}

// deliver hands collected deliveries to the owner, then clears them so
// the reused buffer holds no packet.
func (r *Receiver) deliver(ds []Delivery) {
	for _, d := range ds {
		r.cfg.Deliver(d)
	}
	clear(ds)
}

func (r *Receiver) deliverableLocked(seq uint64) bool {
	if !r.cfg.Byzantine {
		return true
	}
	return r.bnOK[seq]
}

func (r *Receiver) laterDeliverableLocked(after uint64) bool {
	for seq := range r.ready {
		if seq > after && r.deliverableLocked(seq) {
			return true
		}
	}
	for seq, forced := range r.bnForced {
		if seq > after && forced {
			return true
		}
	}
	return false
}

func (r *Receiver) cleanupSeqLocked(seq uint64) {
	delete(r.asm, seq)
	delete(r.pend, seq)
	delete(r.confirms, seq)
	delete(r.ownConfirm, seq)
	delete(r.bnOK, seq)
	delete(r.bnForced, seq)
}

// certFor builds the ordering certificate of an authenticated packet.
// Caller holds r.mu.
func (r *Receiver) certFor(p *authPkt) *OrderingCert {
	c := &OrderingCert{
		Kind:    r.cfg.Variant,
		Group:   p.hdr.Group,
		Epoch:   p.hdr.Epoch,
		Seq:     p.hdr.Seq,
		Digest:  p.hdr.Digest,
		Payload: p.payload,
	}
	switch r.cfg.Variant {
	case wire.AuthHMAC:
		c.HMACVector = p.vector
	case wire.AuthPK:
		c.Chain = p.hdr.Chain
		c.Signed = p.hdr.Signed
		c.Suffix = p.links
		if p.hdr.Signed {
			c.Sig = p.hdr.Auth
		}
	}
	if r.cfg.Byzantine {
		hash := p.hdr.PacketHash()
		for sender, tag := range r.confirms[p.hdr.Seq][hash] {
			c.Confirms = append(c.Confirms, ConfirmSig{Sender: sender, Tag: tag})
		}
	}
	return c
}
