// Package sequencer implements the aom sequencer switch in software.
//
// The paper realizes the sequencer on an Intel Tofino programmable switch
// (with an FPGA co-processor for the public-key variant). This package is
// the behavioural model of that hardware: it keeps one counter register
// per aom group, stamps monotonically increasing sequence numbers into
// aom headers, generates the authenticator (HalfSipHash HMAC vectors in
// subgroups of 4, or secp256k1 signatures governed by a precompute-stock
// signing-ratio controller with SHA-256 hash chaining), and multicasts
// the stamped packet to all group receivers. Fault injection hooks model
// crashed, dropping and equivocating sequencers. The paper's Fig 8 run
// used exactly such a software sequencer on EC2.
//
// The timing and queueing behaviour of the hardware pipelines (Figs 4-6)
// is modelled separately in timing.go; resource inventories (Tables 2-3)
// live in resources.go.
package sequencer

import (
	"encoding/binary"
	"sync"
	"time"

	"neobft/internal/crypto/secp256k1"
	"neobft/internal/crypto/siphash"
	"neobft/internal/metrics"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Flight-recorder event kinds for rare sequencer-side events.
var (
	tkSeqDrop  = metrics.RegisterTraceKind("seq_injected_drop") // a=seq
	tkSeqEquiv = metrics.RegisterTraceKind("seq_equivocate")    // a=seq, b=victims
)

// SubgroupSize is the number of HMAC lanes the switch pipeline computes
// in parallel per pass bundle (§4.3: four unrolled HalfSipHash instances).
const SubgroupSize = 4

// FaultMode selects injected sequencer misbehaviour.
type FaultMode int

// Fault modes.
const (
	// FaultNone is correct operation.
	FaultNone FaultMode = iota
	// FaultCrash ignores all packets (a failed switch).
	FaultCrash
	// FaultDropAll stamps nothing and multicasts nothing, while the
	// switch remains "up" — models a dropping data plane.
	FaultDropAll
	// FaultEquivocate assigns the same sequence number to different
	// payloads for different receivers (a Byzantine switch; only
	// tolerated by the Byzantine-network aom variant).
	FaultEquivocate
)

// GroupConfig is the control-plane installation for one aom group.
type GroupConfig struct {
	Group   uint32
	Epoch   uint32
	Members []transport.NodeID
	// HMACKeys holds one HalfSipHash key per member (aom-hm). Length
	// must match Members when the switch runs the HMAC variant.
	HMACKeys []siphash.HalfKey
}

type groupState struct {
	cfg     GroupConfig
	counter uint64
	chain   [32]byte // last stamped packet hash (aom-pk chaining)
}

// Options configures the switch.
type Options struct {
	// Variant selects HMAC-vector or public-key authentication.
	Variant wire.AuthKind
	// PKSeed deterministically derives the switch signing key (aom-pk).
	PKSeed []byte
	// SignRate is the precompute-table refill rate in signatures/sec for
	// the signing-ratio controller (aom-pk). Zero means sign everything.
	SignRate float64
	// SignBurst is the precompute table (stock) capacity. Default 32.
	SignBurst int
	// SignMaxChain bounds the hash chain: after this many consecutive
	// unsigned packets the controller signs regardless of stock, so a
	// parked receiver never waits more than SignMaxChain packets for the
	// signature that authenticates its chain. Default 8; negative
	// disables the bound.
	SignMaxChain int
	// Metrics, when non-nil, receives the switch's seq_* counters
	// (stamped/signed packets, injected drops) and trace events.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records an ordering span per sampled packet
	// (request arrival → stamp, with the assigned sequence number) and
	// propagates the trace context onto the stamped multicast. The
	// switch's conn must then be wrapped with tracing.WrapConn. Untraced
	// packets pay one atomic load.
	Tracer *tracing.Tracer
}

// Switch is a software aom sequencer. It attaches to the network as an
// ordinary node; senders address aom packets to its node ID (the "group
// address" routing advertisement of §4.1 is modelled by the configuration
// service handing that ID to senders).
type Switch struct {
	conn transport.Conn
	opts Options

	// signer is the aom-pk signing subsystem (pksigner.go); nil for the
	// HMAC variant. Its mutable state is guarded by mu.
	signer *pkSigner

	mu     sync.Mutex
	groups map[uint32]*groupState
	fault  FaultMode
	// equivVictims is how many receivers (taken from the tail of the
	// member list) receive the conflicting packet under FaultEquivocate.
	equivVictims int
	// dropSeqs forces specific sequence numbers to be dropped after
	// stamping (the counter advances but nothing is multicast), creating
	// genuine gaps for the gap-agreement protocol.
	dropSeqs map[uint64]bool

	stamped uint64
	signed  uint64

	// metrics (nil-safe no-ops without a registry)
	mStamped *metrics.Counter
	mSigned  *metrics.Counter
	mDrops   *metrics.Counter
}

// New creates a switch on the given connection. The connection's handler
// is taken over by the switch.
func New(conn transport.Conn, opts Options) *Switch {
	if opts.SignBurst == 0 {
		opts.SignBurst = 32
	}
	if opts.SignMaxChain == 0 {
		opts.SignMaxChain = 8
	}
	s := &Switch{
		conn:     conn,
		opts:     opts,
		groups:   make(map[uint32]*groupState),
		dropSeqs: make(map[uint64]bool),
	}
	if opts.Variant == wire.AuthPK {
		s.signer = newPKSigner(opts.PKSeed, opts.SignRate, opts.SignBurst, opts.SignMaxChain)
	}
	if reg := opts.Metrics; reg != nil {
		s.mStamped = reg.Counter("seq_stamped_total")
		s.mSigned = reg.Counter("seq_signed_total")
		s.mDrops = reg.Counter("seq_injected_drops_total")
		// Fraction of stamped aom-pk packets carrying a real signature
		// (the rest ride the hash chain); 0 when nothing stamped yet.
		reg.Func("seq_signing_ratio", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.stamped == 0 {
				return 0
			}
			return float64(s.signed) / float64(s.stamped)
		})
	}
	conn.SetHandler(s.handle)
	return s
}

// PublicKey returns the switch signing key (aom-pk); the configuration
// service distributes it to receivers.
func (s *Switch) PublicKey() secp256k1.PublicKey {
	if s.signer == nil {
		return secp256k1.PublicKey{}
	}
	return s.signer.publicKey()
}

// InstallGroup installs or replaces a group's control-plane state. The
// counter restarts from zero (a new epoch begins a fresh sequence).
func (s *Switch) InstallGroup(cfg GroupConfig) {
	if s.opts.Variant == wire.AuthHMAC && len(cfg.HMACKeys) != len(cfg.Members) {
		panic("sequencer: HMAC key count must match member count")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups[cfg.Group] = &groupState{cfg: cfg}
}

// SetFault injects a fault mode.
func (s *Switch) SetFault(mode FaultMode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = mode
	if mode == FaultEquivocate && s.equivVictims == 0 {
		s.equivVictims = 1
	}
}

// SetEquivocationVictims sets how many receivers (from the tail of the
// member list) get the conflicting packet under FaultEquivocate.
func (s *Switch) SetEquivocationVictims(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.equivVictims = n
}

// ForceSignNext makes the next stamped aom-pk packet carry a signature
// regardless of the stock level (control-plane hook used by tests and by
// the failover harness to terminate a hash-chain batch deterministically).
func (s *Switch) ForceSignNext() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.signer != nil {
		s.signer.forceNext = true
	}
}

// DropSeq makes the switch stamp-but-drop the packet that receives
// sequence number seq in the given group, creating a gap.
func (s *Switch) DropSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropSeqs[seq] = true
}

// Stamped returns the number of packets sequenced so far.
func (s *Switch) Stamped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stamped
}

// SignedCount returns the number of packets that carried a signature
// (aom-pk; the rest were covered by the hash chain).
func (s *Switch) SignedCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.signed
}

// handle processes one packet arriving at the switch data plane.
func (s *Switch) handle(from transport.NodeID, pktBytes []byte) {
	// Trace propagation: a sampled request's envelope was peeled by the
	// wrapped conn; the ordering span covers arrival → stamp/emit, and
	// SetActive re-attaches the context to the stamped multicast.
	tctx := s.opts.Tracer.TakeInbound()
	var stampedSeq uint64
	if tctx.Trace != 0 {
		start := time.Now()
		s.opts.Tracer.ObserveTransit(time.Duration(start.UnixNano() - tctx.TS))
		oid := s.opts.Tracer.SpanID()
		s.opts.Tracer.SetActive(tctx.Trace, oid)
		defer func() {
			s.opts.Tracer.ClearActive()
			s.opts.Tracer.Span(oid, tctx.Trace, tctx.Parent, tracing.PhaseOrder,
				start, time.Since(start), stampedSeq, 0)
		}()
	}

	hdr, payload, err := wire.DecodeAOM(pktBytes)
	if err != nil || hdr.Kind != wire.AuthNone {
		return // not an aom request; switches forward-and-forget
	}

	s.mu.Lock()
	if s.fault == FaultCrash {
		s.mu.Unlock()
		return
	}
	g, ok := s.groups[hdr.Group]
	if !ok {
		s.mu.Unlock()
		return
	}

	// Sequencing module: locate the group's counter register, increment,
	// stamp (§4.2).
	g.counter++
	seq := g.counter
	stampedSeq = seq
	s.stamped++
	s.mStamped.Inc()
	stamp := wire.AOMHeader{
		Kind:   s.opts.Variant,
		Group:  hdr.Group,
		Epoch:  g.cfg.Epoch,
		Seq:    seq,
		Digest: hdr.Digest,
	}

	if s.fault == FaultDropAll || s.dropSeqs[seq] {
		delete(s.dropSeqs, seq)
		s.mDrops.Inc()
		s.opts.Metrics.Recorder().Record(tkSeqDrop, seq, uint64(hdr.Group))
		// The counter advanced: receivers will observe a gap.
		if s.opts.Variant == wire.AuthPK {
			stamp.Chain = g.chain
			g.chain = stamp.PacketHash()
		}
		s.mu.Unlock()
		return
	}

	switch s.opts.Variant {
	case wire.AuthHMAC:
		s.emitHMAC(g, &stamp, payload)
		s.mu.Unlock()
	case wire.AuthPK:
		stamp.Chain = g.chain
		g.chain = stamp.PacketHash()
		stamp.Signed = s.signer.takeToken()
		if stamp.Signed {
			s.signed++
			s.mSigned.Inc()
		}
		members := g.cfg.Members
		equivFrom := len(members)
		if s.fault == FaultEquivocate {
			equivFrom = len(members) - s.equivVictims
			s.opts.Metrics.Recorder().Record(tkSeqEquiv, seq, uint64(s.equivVictims))
		}
		s.mu.Unlock()
		s.emitPK(members, &stamp, payload, equivFrom)
	}
}

// emitHMAC computes the HMAC vector and multicasts one packet per
// subgroup of 4 receivers, exactly as the folded-pipeline design emits
// one loopback packet per subgroup (§4.3). Caller holds s.mu.
func (s *Switch) emitHMAC(g *groupState, stamp *wire.AOMHeader, payload []byte) {
	members := g.cfg.Members
	keys := g.cfg.HMACKeys
	nsub := (len(members) + SubgroupSize - 1) / SubgroupSize
	input := stamp.AuthInput()
	equivFrom := len(members)
	if s.fault == FaultEquivocate {
		equivFrom = len(members) - s.equivVictims
	}

	for sub := 0; sub < nsub; sub++ {
		lo := sub * SubgroupSize
		hi := lo + SubgroupSize
		if hi > len(members) {
			hi = len(members)
		}
		hdr := *stamp
		hdr.Subgroup = uint8(sub)
		hdr.NumSubgroups = uint8(nsub)
		hdr.Auth = make([]byte, 4*(hi-lo))
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint32(hdr.Auth[4*(i-lo):], siphash.Sum32(keys[i], input))
		}
		w := wire.NewWriter(128 + len(payload))
		wire.EncodeAOM(w, &hdr, payload)
		pkt := w.Bytes()
		// The replication engine multicasts each subgroup packet to the
		// whole group so every receiver can assemble the full vector
		// (transferable authentication).
		for ri, m := range members {
			out := pkt
			if ri >= equivFrom {
				out = s.equivocatePacket(g, &hdr, payload, keys, lo, hi)
			}
			s.conn.Send(m, out)
		}
	}
}

// equivocatePacket builds a conflicting packet for the same sequence
// number (Byzantine switch). Caller holds s.mu.
func (s *Switch) equivocatePacket(g *groupState, hdr *wire.AOMHeader, payload []byte, keys []siphash.HalfKey, lo, hi int) []byte {
	alt := append([]byte("equivocated:"), payload...)
	h2 := *hdr
	h2.Digest = wire.Digest(alt)
	input := h2.AuthInput()
	h2.Auth = make([]byte, 4*(hi-lo))
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint32(h2.Auth[4*(i-lo):], siphash.Sum32(keys[i], input))
	}
	w := wire.NewWriter(128 + len(alt))
	wire.EncodeAOM(w, &h2, alt)
	return w.Bytes()
}
