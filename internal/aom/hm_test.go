package aom

import (
	"bytes"
	"testing"

	"neobft/internal/crypto/siphash"
	"neobft/internal/metrics"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// hmKeys are the lane keys of a 4-member aom-hm group.
func hmKeys() []siphash.HalfKey {
	keys := make([]siphash.HalfKey, 4)
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	return keys
}

// hmReceiver is receiver self of a 4-member aom-hm group (one subgroup).
func hmReceiver(self int, keys []siphash.HalfKey, reg *metrics.Registry, deliver DeliverFunc) *Receiver {
	return NewReceiver(ReceiverConfig{
		Group: 1, Variant: wire.AuthHMAC, SelfIndex: self,
		Members: []transport.NodeID{1, 2, 3, 4}, Deliver: deliver, Metrics: reg,
	}, EpochConfig{Epoch: 1, HMACKey: keys[self]})
}

// TestSingleSubgroupDelivery covers aom-hm without assembly: in a group
// of one subgroup, a packet whose own lane verifies is delivered at once
// with its own Auth as the vector and the owner's Decoded handed back. A
// forged copy counts as a lane failure and does not shut out the genuine
// one; a duplicate or stale copy is ignored.
func TestSingleSubgroupDelivery(t *testing.T) {
	keys := hmKeys()
	reg := metrics.NewRegistry()
	var got []Delivery
	r := hmReceiver(1, keys, reg, func(d Delivery) { got = append(got, d) })
	defer r.Close()

	forged := stampHM(keys, 1, []byte("a"))
	const authAt = 90     // the header's fixed fields and Auth's length come first
	forged[authAt+4] ^= 1 // a byte of lane 1
	if !r.HandlePacket(99, forged) || len(got) != 0 {
		t.Fatalf("a forged lane was delivered: %+v", got)
	}
	if n := reg.Counter("aom_lane_fail_total").Load(); n != 1 {
		t.Fatalf("aom_lane_fail_total = %d after a forged lane, want 1", n)
	}

	genuine := stampHM(keys, 1, []byte("a"))
	pre, _ := r.PreVerify(genuine)
	pre.Decoded = "decoded"
	r.HandlePacketPre(99, genuine, pre)
	if len(got) != 1 || string(got[0].Payload) != "a" || got[0].Decoded != "decoded" {
		t.Fatalf("deliveries after the genuine copy: %+v", got)
	}
	cert := got[0].Cert
	if !bytes.Equal(cert.HMACVector, pre.Hdr.Auth) || len(cert.HMACVector) != 16 {
		t.Fatalf("vector %x, want the packet's Auth %x", cert.HMACVector, pre.Hdr.Auth)
	}
	for i := range keys {
		v := &CertVerifier{Variant: wire.AuthHMAC, Group: 1, Epoch: 1, SelfIndex: i, HMACKey: keys[i], N: 4, F: 1}
		if err := v.Verify(cert); err != nil {
			t.Fatalf("receiver %d rejects the certificate: %v", i, err)
		}
	}

	r.HandlePacket(99, genuine) // duplicate
	r.HandlePacket(99, forged)  // stale
	if len(got) != 1 {
		t.Fatalf("a duplicate or stale copy was delivered: %d deliveries", len(got))
	}
	if n := reg.Counter("aom_lane_fail_total").Load(); n != 1 {
		t.Fatalf("aom_lane_fail_total = %d: a stale copy was checked", n)
	}

	// A verdict from another epoch is not used: the packet is checked
	// inline and delivered without the owner's Decoded.
	two := stampHM(keys, 2, []byte("b"))
	pre, _ = r.PreVerify(two)
	pre.Decoded, pre.Epoch = "stale epoch", 7
	r.HandlePacketPre(99, two, pre)
	if len(got) != 2 || string(got[1].Payload) != "b" || got[1].Decoded != nil {
		t.Fatalf("deliveries: %+v", got)
	}
}

// TestSingleSubgroupAllocs pins what delivering one single-subgroup
// aom-hm packet allocates: the decoded header and the PreVerified on the
// worker, then the authenticated packet and its certificate on the loop.
// Nothing is copied out of the packet.
func TestSingleSubgroupAllocs(t *testing.T) {
	keys := hmKeys()
	delivered := 0
	r := hmReceiver(0, keys, nil, func(Delivery) { delivered++ })
	defer r.Close()
	const runs = 200
	pkts := make([][]byte, 2*(runs+1))
	for i := range pkts {
		pkts[i] = stampHM(keys, uint64(i+1), []byte("payload"))
	}
	next := 0
	receive := func(pre bool) func() {
		return func() {
			pkt := pkts[next]
			next++
			if pre {
				pv, _ := r.PreVerify(pkt)
				r.HandlePacketPre(99, pkt, pv)
			} else {
				r.HandlePacket(99, pkt)
			}
		}
	}
	if allocs := testing.AllocsPerRun(runs, receive(true)); allocs != 4 {
		t.Errorf("PreVerify + HandlePacketPre allocates %v times per packet, want 4", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, receive(false)); allocs != 3 {
		t.Errorf("HandlePacket allocates %v times per packet, want 3", allocs)
	}
	if delivered != len(pkts) {
		t.Fatalf("delivered %d of %d packets", delivered, len(pkts))
	}
}
