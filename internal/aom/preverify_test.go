package aom

import (
	"fmt"
	"testing"

	"neobft/internal/crypto/secp256k1"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// stampPK builds a signed aom-pk packet exactly as the switch would.
func stampPK(priv *secp256k1.PrivateKey, seq uint64, payload []byte) []byte {
	h := &wire.AOMHeader{
		Kind: wire.AuthPK, Group: 1, Epoch: 1, Seq: seq,
		Digest: wire.Digest(payload), Signed: true,
	}
	digest := h.PacketHash()
	enc := priv.Sign(digest[:]).Encode()
	h.Auth = enc[:]
	w := wire.NewWriter(192 + len(payload))
	wire.EncodeAOM(w, h, payload)
	return w.Bytes()
}

// TestPreVerifyBatchRejectsOneBadSignature checks that a batch of 16
// signed packets with one corrupted signature rejects exactly that one,
// and the same for a batch larger than the stack buffers.
func TestPreVerifyBatchRejectsOneBadSignature(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("preverify batch switch"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReceiver(ReceiverConfig{
		Group: 1, Variant: wire.AuthPK, SelfIndex: 0,
		Members: []transport.NodeID{1, 2, 3, 4},
		Deliver: func(Delivery) {},
	}, EpochConfig{Epoch: 1, SwitchPub: priv.Pub})
	defer r.Close()

	for _, n := range []int{16, maxSigBatch + 8} {
		bad := n/2 + 1
		pkts := make([][]byte, n)
		for i := range pkts {
			pkts[i] = stampPK(priv, uint64(i+1), []byte(fmt.Sprintf("op-%d", i)))
		}
		// Flipping a low bit of s keeps the signature decodable but wrong.
		hdr, payload, err := wire.DecodeAOM(pkts[bad])
		if err != nil {
			t.Fatal(err)
		}
		hdr.Auth = append([]byte(nil), hdr.Auth...)
		hdr.Auth[secp256k1.SignatureSize-1] ^= 1
		w := wire.NewWriter(192 + len(payload))
		wire.EncodeAOM(w, hdr, payload)
		pkts[bad] = w.Bytes()

		for i, pv := range r.PreVerifyBatch(pkts) {
			if pv == nil || pv.SigOK == nil {
				t.Fatalf("n=%d packet %d: no signature verdict", n, i)
			}
			if *pv.SigOK != (i != bad) {
				t.Fatalf("n=%d packet %d: SigOK = %v, want %v", n, i, *pv.SigOK, i != bad)
			}
		}
	}
}
