package aom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"neobft/internal/crypto/secp256k1"
	"neobft/internal/metrics"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// pkStream is an aom-pk stream stamped as the sequencer stamps it:
// packet i has seq i+1, and its Chain is the PacketHash of packet i-1.
type pkStream struct {
	priv     *secp256k1.PrivateKey
	hdrs     []*wire.AOMHeader
	payloads [][]byte
}

// newPKStream stamps n packets; signed(i) says whether packet i carries
// a signature (nil: every packet does).
func newPKStream(t testing.TB, n int, signed func(i int) bool) *pkStream {
	t.Helper()
	priv, err := secp256k1.GenerateKey([]byte("preverify switch"))
	if err != nil {
		t.Fatal(err)
	}
	s := &pkStream{priv: priv}
	var chain [32]byte
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("op-%d", i))
		h := &wire.AOMHeader{
			Kind: wire.AuthPK, Group: 1, Epoch: 1, Seq: uint64(i + 1),
			Digest: wire.Digest(payload), Chain: chain, Signed: signed == nil || signed(i),
		}
		if h.Signed {
			d := h.PacketHash()
			enc := priv.Sign(d[:]).Encode()
			h.Auth = enc[:]
		}
		chain = h.PacketHash()
		s.hdrs = append(s.hdrs, h)
		s.payloads = append(s.payloads, payload)
	}
	return s
}

// tamper edits a copy of one packet's header and payload.
type tamper func(h *wire.AOMHeader, payload []byte) []byte

// packet encodes packet i, edited by tf when it is non-nil.
func (s *pkStream) packet(i int, tf tamper) []byte {
	h := *s.hdrs[i]
	h.Auth = bytes.Clone(h.Auth)
	payload := bytes.Clone(s.payloads[i])
	if tf != nil {
		payload = tf(&h, payload)
	}
	w := wire.NewWriter(192 + len(payload))
	wire.EncodeAOM(w, &h, payload)
	return w.Bytes()
}

// packets encodes packets lo..hi-1 untouched.
func (s *pkStream) packets(lo, hi int) [][]byte {
	out := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, s.packet(i, nil))
	}
	return out
}

func (s *pkStream) receiver(reg *metrics.Registry, deliver DeliverFunc) *Receiver {
	if deliver == nil {
		deliver = func(Delivery) {}
	}
	return NewReceiver(ReceiverConfig{
		Group: 1, Variant: wire.AuthPK, SelfIndex: 0,
		Members: []transport.NodeID{1, 2, 3, 4},
		Deliver: deliver, Metrics: reg,
	}, EpochConfig{Epoch: 1, SwitchPub: s.priv.Pub})
}

// verifier is a second replica's certificate verifier, with its own
// signature table.
func (s *pkStream) verifier() *CertVerifier {
	return &CertVerifier{
		Variant: wire.AuthPK, Group: 1, Epoch: 1, SelfIndex: 1,
		PK: secp256k1.NewTableVerifier(s.priv.Pub), N: 4, F: 1,
	}
}

// corruptSig flips a low bit of s: the signature stays decodable but is
// wrong, while every authenticated field of the packet stays intact.
func corruptSig(h *wire.AOMHeader, payload []byte) []byte {
	h.Auth[secp256k1.SignatureSize-1] ^= 1
	return payload
}

// tampers each change a byte that the sequencer's authenticator covers.
var tampers = []struct {
	name string
	f    tamper
}{
	{"payload", func(h *wire.AOMHeader, p []byte) []byte { p[0] ^= 1; return p }},
	{"group", func(h *wire.AOMHeader, p []byte) []byte { h.Group ^= 1; return p }},
	{"epoch", func(h *wire.AOMHeader, p []byte) []byte { h.Epoch ^= 1 << 8; return p }},
	{"seq", func(h *wire.AOMHeader, p []byte) []byte { h.Seq ^= 1; return p }},
	{"digest", func(h *wire.AOMHeader, p []byte) []byte { h.Digest[5] ^= 1; return p }},
	{"chain", func(h *wire.AOMHeader, p []byte) []byte { h.Chain[7] ^= 1; return p }},
}

// accepted reports whether a pre-verified signed aom-pk packet would be
// admitted.
func accepted(pv *PreVerified) bool {
	return pv != nil && pv.DigestOK && pv.SigOK != nil && *pv.SigOK
}

// certOf is the certificate a receiver builds for an admitted packet.
func certOf(pv *PreVerified) *OrderingCert {
	h := pv.Hdr
	c := &OrderingCert{
		Kind: h.Kind, Group: h.Group, Epoch: h.Epoch, Seq: h.Seq, Digest: h.Digest,
		Payload: pv.Payload, Chain: h.Chain, Signed: h.Signed, Suffix: pv.Suffix,
	}
	if h.Signed {
		c.Sig = h.Auth
	}
	return c
}

// checkTransfers marshals a certificate, decodes it and verifies it with
// another replica's verifier.
func checkTransfers(t *testing.T, v *CertVerifier, c *OrderingCert, what string) {
	t.Helper()
	got, err := UnmarshalCert(c.Marshal())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := v.Verify(got); err != nil {
		t.Fatalf("%s: certificate rejected after transfer: %v", what, err)
	}
}

var runSizes = []int{1, 2, 9, 16, 40}

// TestPreVerifyVerifiesOnePerRun checks that an intact run is
// authenticated by its highest signature alone: every other packet
// carries its suffix up to that packet.
func TestPreVerifyVerifiesOnePerRun(t *testing.T) {
	s := newPKStream(t, 40, nil)
	r := s.receiver(nil, nil)
	defer r.Close()
	for _, n := range runSizes {
		out := r.PreVerifyBatch(s.packets(0, n))
		for i, pv := range out {
			if !accepted(pv) {
				t.Fatalf("n=%d packet %d refused", n, i)
			}
			if len(pv.Suffix) != n-1-i {
				t.Fatalf("n=%d packet %d: suffix of %d links, want %d", n, i, len(pv.Suffix), n-1-i)
			}
			if i < n-1 && pv.Suffix[len(pv.Suffix)-1].Seq != uint64(n) {
				t.Fatalf("n=%d packet %d: suffix ends at seq %d, want %d", n, i, pv.Suffix[len(pv.Suffix)-1].Seq, n)
			}
		}
	}
}

// TestPreVerifyRefusesTampering flips, at every position of runs of
// 1, 2, 9, 16 and 40 packets, one byte of each authenticated header field
// or of the payload: that packet is refused, every other one accepted.
func TestPreVerifyRefusesTampering(t *testing.T) {
	s := newPKStream(t, 40, nil)
	r := s.receiver(nil, nil)
	defer r.Close()
	for _, n := range runSizes {
		for pos := 0; pos < n; pos++ {
			for _, tc := range tampers {
				pkts := s.packets(0, n)
				pkts[pos] = s.packet(pos, tc.f)
				for i, pv := range r.PreVerifyBatch(pkts) {
					if accepted(pv) != (i != pos) {
						t.Fatalf("n=%d, %s flipped at %d: packet %d accepted = %v", n, tc.name, pos, i, accepted(pv))
					}
				}
			}
		}
	}
}

// TestPreVerifyStepsDownPastCorruptSignatures checks the one verdict
// that differs from verifying every signature: a packet whose own
// signature bytes are corrupt is accepted when a verified later signature
// chains to it. A corrupt head is refused and the run steps down to the
// next signature, and a run whose every signature is corrupt is refused.
// Every certificate of an accepted packet verifies at another replica.
func TestPreVerifyStepsDownPastCorruptSignatures(t *testing.T) {
	s := newPKStream(t, 40, nil)
	r := s.receiver(nil, nil)
	defer r.Close()
	v := s.verifier()
	for _, n := range runSizes {
		for pos := 0; pos < n; pos++ {
			pkts := s.packets(0, n)
			pkts[pos] = s.packet(pos, corruptSig)
			for i, pv := range r.PreVerifyBatch(pkts) {
				want := i != pos || pos != n-1
				if accepted(pv) != want {
					t.Fatalf("n=%d, signature %d corrupt: packet %d accepted = %v, want %v", n, pos, i, accepted(pv), want)
				}
				if want {
					checkTransfers(t, v, certOf(pv), fmt.Sprintf("n=%d, signature %d corrupt: packet %d", n, pos, i))
				}
			}
		}

		pkts := make([][]byte, n)
		for i := range pkts {
			pkts[i] = s.packet(i, corruptSig)
		}
		for i, pv := range r.PreVerifyBatch(pkts) {
			if accepted(pv) {
				t.Fatalf("n=%d, every signature corrupt: packet %d accepted", n, i)
			}
		}
	}

	// The top three signatures of a run of nine are corrupt: the run
	// steps down three times, and the six below it are accepted.
	pkts := s.packets(0, 9)
	for i := 6; i < 9; i++ {
		pkts[i] = s.packet(i, corruptSig)
	}
	for i, pv := range r.PreVerifyBatch(pkts) {
		if accepted(pv) != (i < 6) {
			t.Fatalf("top three corrupt: packet %d accepted = %v", i, accepted(pv))
		}
	}

	// Packets that do not chain are runs of one, each verified alone: one
	// corrupt signature rejects exactly that packet, also in a batch
	// larger than the stack buffers.
	for _, n := range []int{16, maxSigBatch + 8} {
		bad := n/2 + 1
		pkts := make([][]byte, n)
		for i := range pkts {
			h := &wire.AOMHeader{
				Kind: wire.AuthPK, Group: 1, Epoch: 1, Seq: uint64(i + 1),
				Digest: wire.Digest(s.payloads[i]), Signed: true,
			}
			d := h.PacketHash()
			enc := s.priv.Sign(d[:]).Encode()
			h.Auth = enc[:]
			if i == bad {
				corruptSig(h, nil)
			}
			w := wire.NewWriter(192 + len(s.payloads[i]))
			wire.EncodeAOM(w, h, s.payloads[i])
			pkts[i] = w.Bytes()
		}
		for i, pv := range r.PreVerifyBatch(pkts) {
			if accepted(pv) != (i != bad) {
				t.Fatalf("unchained n=%d, signature %d corrupt: packet %d accepted = %v", n, bad, i, accepted(pv))
			}
		}
	}
}

// TestPreVerifyDuplicatesConflictsReorder covers batches that are not
// one clean run: shuffled, duplicated, with unsigned packets, and with a
// conflicting copy at one sequence number.
func TestPreVerifyDuplicatesConflictsReorder(t *testing.T) {
	s := newPKStream(t, 16, func(i int) bool { return i%4 != 1 })
	r := s.receiver(nil, nil)
	defer r.Close()
	v := s.verifier()
	rng := rand.New(rand.NewSource(1))
	genuine := func(pkt []byte) int {
		for i := range s.hdrs {
			if bytes.Equal(pkt, s.packet(i, nil)) {
				return i
			}
		}
		return -1
	}
	check := func(name string, pkts [][]byte) {
		t.Helper()
		for j, pv := range r.PreVerifyBatch(pkts) {
			i := genuine(pkts[j])
			if i < 0 {
				if accepted(pv) || (pv != nil && len(pv.Suffix) > 0) {
					t.Fatalf("%s: forged packet %d admitted", name, j)
				}
				continue
			}
			// Every packet but the highest of the batch is chain-linked
			// to a verified signature; so is packet 15, the head.
			if i < 15 && len(pv.Suffix) == 0 && !accepted(pv) {
				t.Fatalf("%s: genuine packet %d (seq %d) not authenticated", name, j, i+1)
			}
			if s.hdrs[i].Signed && !accepted(pv) {
				t.Fatalf("%s: genuine signed packet seq %d refused", name, i+1)
			}
			if len(pv.Suffix) > 0 || accepted(pv) {
				checkTransfers(t, v, certOf(pv), fmt.Sprintf("%s: seq %d", name, i+1))
			}
		}
	}

	pkts := s.packets(0, 16)
	rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	check("reordered", pkts)

	pkts = append(s.packets(0, 16), s.packets(0, 16)...)
	rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	check("duplicated", pkts)

	// Conflicting copies at seq 8 (index 7): a forged payload with a
	// matching digest, and a copy whose Chain is wrong. Only the genuine
	// copy links to seq 9, so the run below it stays whole.
	forged := func(h *wire.AOMHeader, p []byte) []byte {
		p = []byte("forged")
		h.Digest = wire.Digest(p)
		return p
	}
	for _, tf := range []tamper{forged, tampers[5].f} {
		pkts = s.packets(0, 16)
		pkts = append(pkts[:8], append([][]byte{s.packet(7, tf)}, pkts[8:]...)...)
		check("conflict before genuine", pkts)
		pkts[7], pkts[8] = pkts[8], pkts[7]
		check("conflict after genuine", pkts)
	}

	// A run of unsigned packets alone stays unauthenticated.
	out := r.PreVerifyBatch([][]byte{s.packet(1, nil)})
	if out[0] == nil || out[0].SigOK != nil || len(out[0].Suffix) != 0 {
		t.Fatalf("lone unsigned packet: %+v", out[0])
	}
}

// TestPreVerifyRunSplitAcrossBatches delivers one chain through two
// batches and a receiver: both halves are authenticated by their own
// highest signature, and every slot is delivered with a transferable
// certificate.
func TestPreVerifyRunSplitAcrossBatches(t *testing.T) {
	s := newPKStream(t, 16, nil)
	var got []Delivery
	r := s.receiver(nil, func(d Delivery) { got = append(got, d) })
	defer r.Close()
	v := s.verifier()
	for _, batch := range [][][]byte{s.packets(0, 7), s.packets(7, 16)} {
		for i, pv := range r.PreVerifyBatch(batch) {
			r.HandlePacketPre(0, batch[i], pv)
		}
	}
	if len(got) != 16 {
		t.Fatalf("%d deliveries, want 16", len(got))
	}
	for i, d := range got {
		if d.Dropped || d.Seq != uint64(i+1) {
			t.Fatalf("delivery %d = %+v", i, d)
		}
		checkTransfers(t, v, d.Cert, fmt.Sprintf("seq %d", d.Seq))
	}
	if n := len(got[0].Cert.Suffix); n != 6 {
		t.Fatalf("seq 1 suffix has %d links, want 6 (to the first batch's head)", n)
	}
}

// TestPreVerifyCertTransferProperty feeds random streams, cut into random
// batches and damaged at random (corrupt signatures, tampered packets,
// duplicates, reordering), through PreVerifyBatch and a receiver. Every
// delivered payload is the genuine one, and every delivered certificate
// survives Marshal, UnmarshalCert and a second replica's CertVerifier —
// including certificates of signed packets whose own signature is corrupt.
func TestPreVerifyCertTransferProperty(t *testing.T) {
	s := newPKStream(t, 40, func(i int) bool { return i%5 != 2 })
	v := s.verifier()
	rng := rand.New(rand.NewSource(7))
	corruptDelivered := 0
	for trial := 0; trial < 60; trial++ {
		var got []Delivery
		r := s.receiver(nil, func(d Delivery) { got = append(got, d) })
		n := 1 + rng.Intn(40)
		var batch [][]byte
		flush := func() {
			if trial%3 == 0 {
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			}
			for i, pv := range r.PreVerifyBatch(batch) {
				r.HandlePacketPre(0, batch[i], pv)
			}
			batch = batch[:0]
		}
		for i := 0; i < n; i++ {
			var tf tamper
			switch x := rng.Intn(10); {
			case x < 2 && s.hdrs[i].Signed:
				tf = corruptSig
			case x == 2:
				tf = tampers[rng.Intn(len(tampers))].f
			}
			batch = append(batch, s.packet(i, tf))
			if rng.Intn(8) == 0 {
				batch = append(batch, s.packet(i, nil))
			}
			if len(batch) >= 1+rng.Intn(maxSigBatch) {
				flush()
			}
		}
		flush()
		r.Close()
		for _, d := range got {
			if d.Dropped {
				continue
			}
			i := int(d.Seq) - 1
			if !bytes.Equal(d.Payload, s.payloads[i]) {
				t.Fatalf("trial %d: seq %d delivered a forged payload", trial, d.Seq)
			}
			checkTransfers(t, v, d.Cert, fmt.Sprintf("trial %d, seq %d", trial, d.Seq))
			if d.Cert.Signed && !bytes.Equal(d.Cert.Sig, s.hdrs[i].Auth) {
				corruptDelivered++
			}
		}
	}
	if corruptDelivered == 0 {
		t.Fatal("no packet with a corrupt own signature was delivered; the property never exercised chain authentication of signed packets")
	}
}

// TestPreVerifyCertTransferRejectsBrokenSuffix checks that the suffix
// walk is no weaker than a signature: a certificate whose own signature
// is corrupt verifies only through an intact suffix ending in a valid
// signature.
func TestPreVerifyCertTransferRejectsBrokenSuffix(t *testing.T) {
	s := newPKStream(t, 5, func(i int) bool { return i != 2 })
	r := s.receiver(nil, nil)
	defer r.Close()
	v := s.verifier()
	pkts := s.packets(0, 5)
	pkts[0] = s.packet(0, corruptSig)
	good := certOf(r.PreVerifyBatch(pkts)[0])
	if len(good.Suffix) != 4 {
		t.Fatalf("suffix of %d links, want 4", len(good.Suffix))
	}
	checkTransfers(t, v, good, "intact")
	broken := map[string]func(c *OrderingCert){
		"no suffix":           func(c *OrderingCert) { c.Suffix = nil },
		"ends unsigned":       func(c *OrderingCert) { c.Suffix = c.Suffix[:2] },
		"last signature":      func(c *OrderingCert) { c.Suffix[3].Sig[secp256k1.SignatureSize-1] ^= 1 },
		"link digest":         func(c *OrderingCert) { c.Suffix[1].Digest[0] ^= 1 },
		"link seq":            func(c *OrderingCert) { c.Suffix[2].Seq++ },
		"certified payload":   func(c *OrderingCert) { c.Payload = []byte("forged"); c.Digest = wire.Digest(c.Payload) },
		"certified seq":       func(c *OrderingCert) { c.Seq++ },
		"unsigned, own chain": func(c *OrderingCert) { c.Signed = false; c.Chain[0] ^= 1 },
	}
	for name, f := range broken {
		c, err := UnmarshalCert(good.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		f(c)
		if v.Verify(c) == nil {
			t.Fatalf("%s: broken certificate accepted", name)
		}
	}
}

// TestParkedCopiesGenuineReplacesForged: a copy of an unsigned packet
// with a flipped Chain byte arrives first and is parked; the genuine copy
// must not be ignored, so the signed successor's walk back adopts it and
// no gap is declared for a slot that was received.
func TestParkedCopiesGenuineReplacesForged(t *testing.T) {
	s := newPKStream(t, 3, func(i int) bool { return i != 1 })
	reg := metrics.NewRegistry()
	var got []Delivery
	r := s.receiver(reg, func(d Delivery) { got = append(got, d) })
	defer r.Close()
	for _, pkt := range [][]byte{s.packet(0, nil), s.packet(1, tampers[5].f), s.packet(1, nil), s.packet(2, nil)} {
		r.HandlePacket(0, pkt)
	}
	if len(got) != 3 {
		t.Fatalf("%d deliveries, want 3", len(got))
	}
	for i, d := range got {
		if d.Dropped || !bytes.Equal(d.Payload, s.payloads[i]) {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
	if gaps := reg.Counter("aom_gap_total").Load(); gaps != 0 {
		t.Fatalf("aom_gap_total = %d, want 0", gaps)
	}
	checkTransfers(t, s.verifier(), got[1].Cert, "seq 2")
}

// TestChainLinksOneSlicePerRun guards the suffix building: authenticating
// a run of 64 parked unsigned packets below a signed head allocates one
// link slice, not one per packet, and every certificate of the run still
// verifies.
func TestChainLinksOneSlicePerRun(t *testing.T) {
	const n = 64
	s := newPKStream(t, n+1, func(i int) bool { return i == n })
	r := s.receiver(nil, nil)
	defer r.Close()
	parked := make([][]*authPkt, n)
	for i := range parked {
		parked[i] = []*authPkt{{hdr: s.hdrs[i], payload: s.payloads[i]}}
	}
	head := &authPkt{hdr: s.hdrs[n], payload: s.payloads[n]}
	walk := func() {
		for i, p := range parked {
			r.pend[uint64(i+1)] = p
			delete(r.ready, uint64(i+1))
		}
		r.walkChainBack(head)
	}
	walk() // size the maps
	if allocs := testing.AllocsPerRun(20, walk); allocs > 1 {
		t.Fatalf("walking back a run of %d allocates %v times, want 1", n, allocs)
	}
	v := s.verifier()
	for i := 0; i < n; i++ {
		p := r.ready[uint64(i+1)]
		if p == nil {
			t.Fatalf("seq %d not authenticated", i+1)
		}
		if len(p.links) != n-i {
			t.Fatalf("seq %d: %d links, want %d", i+1, len(p.links), n-i)
		}
		checkTransfers(t, v, r.certFor(p), fmt.Sprintf("seq %d", i+1))
	}
}

// BenchmarkPreVerifyBatch measures PreVerifyBatch over one signed run:
// ns per packet, and sequencer signatures verified per packet.
func BenchmarkPreVerifyBatch(b *testing.B) {
	s := newPKStream(b, 32, nil)
	r := s.receiver(nil, nil)
	defer r.Close()
	for _, n := range []int{8, 16, 32} {
		pkts := s.packets(0, n)
		b.Run(fmt.Sprintf("run=%d", n), func(b *testing.B) {
			sigs := 0
			for _, pv := range r.PreVerifyBatch(pkts) {
				if pv.SigOK != nil && len(pv.Suffix) == 0 {
					sigs++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.PreVerifyBatch(pkts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pkt")
			b.ReportMetric(float64(sigs)/float64(n), "sigs/pkt")
		})
	}
}
