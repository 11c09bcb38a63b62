package sequencer

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"neobft/internal/crypto/secp256k1"
	"neobft/internal/crypto/siphash"
	"neobft/internal/metrics"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
	"neobft/internal/wire"
)

const (
	switchID = transport.NodeID(0)
	senderID = transport.NodeID(100)
)

type capture struct {
	mu   sync.Mutex
	pkts map[transport.NodeID][]*wire.AOMHeader
	pays map[transport.NodeID][][]byte
}

func newCapture() *capture {
	return &capture{
		pkts: make(map[transport.NodeID][]*wire.AOMHeader),
		pays: make(map[transport.NodeID][][]byte),
	}
}

func (c *capture) handler(id transport.NodeID) transport.Handler {
	return func(from transport.NodeID, p []byte) {
		hdr, payload, err := wire.DecodeAOM(p)
		if err != nil {
			return
		}
		c.mu.Lock()
		c.pkts[id] = append(c.pkts[id], hdr)
		c.pays[id] = append(c.pays[id], append([]byte(nil), payload...))
		c.mu.Unlock()
	}
}

func (c *capture) count(id transport.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts[id])
}

func (c *capture) get(id transport.NodeID, i int) (*wire.AOMHeader, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pkts[id][i], c.pays[id][i]
}

func keysFor(n int) []siphash.HalfKey {
	keys := make([]siphash.HalfKey, n)
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	return keys
}

// rig builds a simnet with a switch and n receivers, returning the
// sender's conn, the switch and a capture of receiver traffic.
func rig(t *testing.T, variant wire.AuthKind, n int, opts Options) (*simnet.Network, transport.Conn, *Switch, *capture, []siphash.HalfKey) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	swConn := net.Join(switchID)
	opts.Variant = variant
	if variant == wire.AuthPK && opts.PKSeed == nil {
		opts.PKSeed = []byte("test switch")
	}
	sw := New(swConn, opts)
	cap := newCapture()
	members := make([]transport.NodeID, n)
	for i := 0; i < n; i++ {
		id := transport.NodeID(i + 1)
		members[i] = id
		c := net.Join(id)
		c.SetHandler(cap.handler(id))
	}
	keys := keysFor(n)
	cfg := GroupConfig{Group: 1, Epoch: 1, Members: members}
	if variant == wire.AuthHMAC {
		cfg.HMACKeys = keys
	}
	sw.InstallGroup(cfg)
	sender := net.Join(senderID)
	return net, sender, sw, cap, keys
}

func sendAOM(conn transport.Conn, group uint32, payload []byte) {
	h := &wire.AOMHeader{Kind: wire.AuthNone, Group: group, Digest: wire.Digest(payload)}
	w := wire.NewWriter(128 + len(payload))
	wire.EncodeAOM(w, h, payload)
	conn.Send(switchID, w.Bytes())
}

func waitCount(t *testing.T, cap *capture, id transport.NodeID, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cap.count(id) >= want {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("node %d received %d packets, want %d", id, cap.count(id), want)
}

func TestHMACStampingAndVerification(t *testing.T) {
	_, sender, _, cap, keys := rig(t, wire.AuthHMAC, 4, Options{})
	for i := 0; i < 3; i++ {
		sendAOM(sender, 1, []byte{byte('a' + i)})
	}
	for r := 1; r <= 4; r++ {
		waitCount(t, cap, transport.NodeID(r), 3)
	}
	// Receiver 2 (index 1) verifies its lane on every packet and sees
	// monotonically increasing sequence numbers.
	for i := 0; i < 3; i++ {
		hdr, payload := cap.get(2, i)
		if hdr.Seq != uint64(i+1) {
			t.Fatalf("packet %d has seq %d", i, hdr.Seq)
		}
		if hdr.Epoch != 1 || hdr.Group != 1 {
			t.Fatalf("bad epoch/group: %+v", hdr)
		}
		if hdr.Digest != wire.Digest(payload) {
			t.Fatal("digest does not match payload")
		}
		want := siphash.Sum32(keys[1], hdr.AuthInput())
		got := binary.LittleEndian.Uint32(hdr.Auth[4*1:])
		if got != want {
			t.Fatalf("packet %d lane MAC mismatch", i)
		}
	}
}

// TestFanOutPacksPerReceiverOverUDP pins the switch's share of the packet
// path on real sockets: it has no cork of its own, so a burst of k
// requests that its conn's reader takes in together must leave as one
// datagram per receiver — n datagrams carrying k·n stamped packets — each
// receiver still seeing every sequence number, in order.
func TestFanOutPacksPerReceiverOverUDP(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skip("without sendmmsg a second destination flushes the first")
	}
	const k, n = 5, 4
	reg := metrics.NewRegistry()
	fab := udpnet.NewLoopback(udpnet.FabricConfig{MetricsFor: func(id transport.NodeID) *metrics.Registry {
		if id == switchID {
			return reg
		}
		return nil
	}})
	defer fab.Close()
	join := func(id transport.NodeID) transport.Conn {
		c, err := fab.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sw := New(join(switchID), Options{Variant: wire.AuthHMAC})
	cap := newCapture()
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(i + 1)
		join(members[i]).SetHandler(cap.handler(members[i]))
	}
	sw.InstallGroup(GroupConfig{Group: 1, Epoch: 1, Members: members, HMACKeys: keysFor(n)})

	// One corked run from the sender is one datagram, hence one burst.
	sender := join(senderID)
	cork := transport.CorkerOf(sender)
	cork.Cork()
	for i := 0; i < k; i++ {
		sendAOM(sender, 1, []byte{byte('a' + i)})
	}
	cork.Flush()
	for _, id := range members {
		waitCount(t, cap, id, k)
		for i := 0; i < k; i++ {
			if hdr, _ := cap.get(id, i); hdr.Seq != uint64(i+1) {
				t.Fatalf("receiver %d: packet %d has seq %d", id, i, hdr.Seq)
			}
		}
	}
	pkts, dgrams := reg.Counter("udp_tx_packets_total").Load(), reg.Counter("udp_tx_datagrams_total").Load()
	if pkts != k*n || dgrams != n {
		t.Fatalf("%d requests to %d receivers left as %d packets in %d datagrams, want %d in %d", k, n, pkts, dgrams, k*n, n)
	}
}

func TestHMACSubgrouping(t *testing.T) {
	const n = 10 // → 3 subgroups: 4 + 4 + 2 lanes
	_, sender, _, cap, keys := rig(t, wire.AuthHMAC, n, Options{})
	sendAOM(sender, 1, []byte("msg"))
	// Every receiver gets one packet per subgroup.
	waitCount(t, cap, 1, 3)
	seen := map[uint8]int{}
	var input []byte
	for i := 0; i < 3; i++ {
		hdr, _ := cap.get(1, i)
		if hdr.NumSubgroups != 3 {
			t.Fatalf("NumSubgroups = %d, want 3", hdr.NumSubgroups)
		}
		seen[hdr.Subgroup] = len(hdr.Auth)
		input = hdr.AuthInput()
	}
	if seen[0] != 16 || seen[1] != 16 || seen[2] != 8 {
		t.Fatalf("subgroup auth sizes = %v", seen)
	}
	// Assemble the full vector and check lane 9 (receiver 10, subgroup 2).
	for i := 0; i < 3; i++ {
		hdr, _ := cap.get(1, i)
		if hdr.Subgroup == 2 {
			got := binary.LittleEndian.Uint32(hdr.Auth[4*1:]) // index 9 → lane 1 of subgroup 2
			if got != siphash.Sum32(keys[9], input) {
				t.Fatal("assembled lane MAC mismatch")
			}
		}
	}
}

func TestPKSigningAndChain(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthPK, 4, Options{})
	for i := 0; i < 3; i++ {
		sendAOM(sender, 1, []byte{byte('x' + i)})
	}
	waitCount(t, cap, 1, 3)
	pub := sw.PublicKey()
	var prevHash [32]byte
	for i := 0; i < 3; i++ {
		hdr, _ := cap.get(1, i)
		if !hdr.Signed {
			t.Fatalf("packet %d unsigned with unlimited sign rate", i)
		}
		digest := hdr.PacketHash()
		sig, err := secp256k1.DecodeSignature(hdr.Auth)
		if err != nil {
			t.Fatal(err)
		}
		if !pub.Verify(digest[:], sig) {
			t.Fatalf("packet %d signature invalid", i)
		}
		if hdr.Chain != prevHash {
			t.Fatalf("packet %d chain broken", i)
		}
		prevHash = hdr.PacketHash()
	}
}

func TestPKSignRatioController(t *testing.T) {
	// Refill ~1 sig/sec with burst 1: the first packet is signed, an
	// immediate burst afterwards is not.
	_, sender, sw, cap, _ := rig(t, wire.AuthPK, 4, Options{SignRate: 1, SignBurst: 1})
	const total = 20
	for i := 0; i < total; i++ {
		sendAOM(sender, 1, []byte{byte(i)})
	}
	waitCount(t, cap, 1, total)
	signed := 0
	var prevHash [32]byte
	for i := 0; i < total; i++ {
		hdr, _ := cap.get(1, i)
		if hdr.Signed {
			signed++
		}
		if hdr.Chain != prevHash {
			t.Fatalf("packet %d chain broken", i)
		}
		prevHash = hdr.PacketHash()
	}
	if signed == 0 || signed == total {
		t.Fatalf("signed %d of %d; expected a strict subset under the ratio controller", signed, total)
	}
	if got := sw.SignedCount(); got != uint64(signed) {
		t.Fatalf("SignedCount = %d, observed %d", got, signed)
	}
}

func TestPKSignMaxChain(t *testing.T) {
	// Starve the token bucket (negligible refill) so only the chain
	// bound produces signatures: with SignMaxChain 3 every unsigned run
	// must be at most 3 packets long.
	_, sender, _, cap, _ := rig(t, wire.AuthPK, 4, Options{SignRate: 1e-9, SignBurst: 1, SignMaxChain: 3})
	const total = 20
	for i := 0; i < total; i++ {
		sendAOM(sender, 1, []byte{byte(i)})
	}
	waitCount(t, cap, 1, total)
	run, signed := 0, 0
	for i := 0; i < total; i++ {
		hdr, _ := cap.get(1, i)
		if hdr.Signed {
			signed++
			run = 0
			continue
		}
		run++
		if run > 3 {
			t.Fatalf("packet %d extends an unsigned run of %d, want <= 3", i, run)
		}
	}
	if signed >= total/2 {
		t.Fatalf("signed %d of %d with a starved bucket; the chain bound should dominate", signed, total)
	}
}

func TestFaultCrash(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	sw.SetFault(FaultCrash)
	sendAOM(sender, 1, []byte("void"))
	time.Sleep(10 * time.Millisecond)
	if cap.count(1) != 0 {
		t.Fatal("crashed switch emitted packets")
	}
	if sw.Stamped() != 0 {
		t.Fatal("crashed switch advanced the counter")
	}
}

func TestFaultDropAllAdvancesCounter(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	sw.SetFault(FaultDropAll)
	sendAOM(sender, 1, []byte("a"))
	sendAOM(sender, 1, []byte("b"))
	deadline := time.Now().Add(time.Second)
	for sw.Stamped() < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	sw.SetFault(FaultNone)
	sendAOM(sender, 1, []byte("c"))
	waitCount(t, cap, 1, 1)
	hdr, _ := cap.get(1, 0)
	if hdr.Seq != 3 {
		t.Fatalf("post-drop packet has seq %d, want 3 (gap of 2)", hdr.Seq)
	}
}

func TestDropSeqCreatesGap(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	sw.DropSeq(2)
	for i := 0; i < 3; i++ {
		sendAOM(sender, 1, []byte{byte(i)})
	}
	waitCount(t, cap, 1, 2)
	h0, _ := cap.get(1, 0)
	h1, _ := cap.get(1, 1)
	if h0.Seq != 1 || h1.Seq != 3 {
		t.Fatalf("received seqs %d, %d; want 1, 3", h0.Seq, h1.Seq)
	}
}

func TestEquivocation(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	sw.SetFault(FaultEquivocate)
	sw.SetEquivocationVictims(1)
	sendAOM(sender, 1, []byte("truth"))
	for r := 1; r <= 4; r++ {
		waitCount(t, cap, transport.NodeID(r), 1)
	}
	h1, p1 := cap.get(1, 0)
	h4, p4 := cap.get(4, 0)
	if h1.Seq != h4.Seq {
		t.Fatal("equivocation changed sequence numbers")
	}
	if bytes.Equal(p1, p4) || h1.Digest == h4.Digest {
		t.Fatal("victim received the same payload; no equivocation")
	}
	// Both copies carry valid MACs for their receivers — that is what
	// makes naive (non-BN) receivers accept them.
	if h4.Digest != wire.Digest(p4) {
		t.Fatal("equivocated packet digest does not cover its payload")
	}
}

func TestUnknownGroupIgnored(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	sendAOM(sender, 99, []byte("lost"))
	time.Sleep(5 * time.Millisecond)
	if cap.count(1) != 0 || sw.Stamped() != 0 {
		t.Fatal("packet for unknown group processed")
	}
}

func TestStampedPacketsNotResequenced(t *testing.T) {
	// A packet that already carries an authenticator (replayed stamped
	// packet) must be ignored by the data plane.
	net, _, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	evil := net.Join(200)
	h := &wire.AOMHeader{Kind: wire.AuthHMAC, Group: 1, Seq: 77, Digest: wire.Digest([]byte("x")), Auth: make([]byte, 16)}
	w := wire.NewWriter(128)
	wire.EncodeAOM(w, h, []byte("x"))
	evil.Send(switchID, w.Bytes())
	time.Sleep(5 * time.Millisecond)
	if cap.count(1) != 0 || sw.Stamped() != 0 {
		t.Fatal("already-stamped packet was resequenced")
	}
}

func TestEpochInInstalledConfig(t *testing.T) {
	_, sender, sw, cap, _ := rig(t, wire.AuthHMAC, 4, Options{})
	sw.InstallGroup(GroupConfig{Group: 1, Epoch: 5, Members: []transport.NodeID{1, 2, 3, 4}, HMACKeys: keysFor(4)})
	sendAOM(sender, 1, []byte("e"))
	waitCount(t, cap, 1, 1)
	hdr, _ := cap.get(1, 0)
	if hdr.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", hdr.Epoch)
	}
	if hdr.Seq != 1 {
		t.Fatalf("reinstall did not reset counter: seq = %d", hdr.Seq)
	}
}

// --- timing model tests -----------------------------------------------

func TestHMACModelThroughputShape(t *testing.T) {
	t4 := HMACModel(4).MaxThroughput()
	t64 := HMACModel(64).MaxThroughput()
	if t4 < 50e6 || t4 > 100e6 {
		t.Fatalf("aom-hm group-4 throughput %.1f Mpps outside the Fig 6 ballpark", t4/1e6)
	}
	ratio := t4 / t64
	if ratio < 10 || ratio > 20 {
		t.Fatalf("group 4 vs 64 throughput ratio %.1f; paper measures ~13x", ratio)
	}
	// Monotone non-increasing in group size.
	prev := t4
	for g := 8; g <= 64; g += 4 {
		cur := HMACModel(g).MaxThroughput()
		if cur > prev {
			t.Fatalf("throughput increased from group %d to %d", g-4, g)
		}
		prev = cur
	}
}

func TestPKModelGroupSizeAgnostic(t *testing.T) {
	if PKModel(4).MaxThroughput() != PKModel(64).MaxThroughput() {
		t.Fatal("aom-pk throughput varies with group size")
	}
	mpps := PKModel(4).MaxThroughput() / 1e6
	if mpps < 1.0 || mpps > 1.3 {
		t.Fatalf("aom-pk throughput %.2f Mpps outside the Fig 6 ballpark", mpps)
	}
}

func TestLatencySimulationShape(t *testing.T) {
	hm := HMACModel(4)
	low := hm.SimulateLatency(0.25, 20000, 1)
	high := hm.SimulateLatency(0.99, 20000, 1)
	medLow := Percentile(low, 50)
	if medLow < 7*time.Microsecond || medLow > 12*time.Microsecond {
		t.Fatalf("aom-hm median latency %v at 25%% load; Fig 4 measures ~9µs", medLow)
	}
	// The tail at 99% load must exceed the tail at 25% load (queueing).
	if Percentile(high, 99) <= Percentile(low, 99) {
		t.Fatal("no queueing tail at 99% load")
	}
	pk := PKModel(4)
	medPK := Percentile(pk.SimulateLatency(0.25, 20000, 1), 50)
	if medPK < 2*time.Microsecond || medPK > 5*time.Microsecond {
		t.Fatalf("aom-pk median latency %v at 25%% load; Fig 5 measures ~3µs", medPK)
	}
	if medPK >= medLow {
		t.Fatal("aom-pk should have lower unloaded latency than aom-hm")
	}
}

func TestPercentile(t *testing.T) {
	s := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Percentile(s, 50) != 5 {
		t.Fatalf("p50 = %v", Percentile(s, 50))
	}
	if Percentile(s, 100) != 10 {
		t.Fatalf("p100 = %v", Percentile(s, 100))
	}
	if Percentile(s, 1) != 1 {
		t.Fatalf("p1 = %v", Percentile(s, 1))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile not zero")
	}
}

func TestResourceTables(t *testing.T) {
	rows := HMACResources()
	if len(rows) != 2 || rows[1].Stages != 12 {
		t.Fatalf("Table 2 rows = %+v", rows)
	}
	fpga, avail := PKResources()
	if len(fpga) != 3 || avail.LUT != 870 {
		t.Fatalf("Table 3 rows = %+v avail = %+v", fpga, avail)
	}
	if DesignSummary() == "" {
		t.Fatal("empty design summary")
	}
}

func BenchmarkSwitchHMACStamp(b *testing.B) {
	net := simnet.New(simnet.Options{})
	defer net.Close()
	swConn := net.Join(switchID)
	sw := New(swConn, Options{Variant: wire.AuthHMAC})
	members := []transport.NodeID{1, 2, 3, 4}
	for _, m := range members {
		net.Join(m).SetHandler(func(from transport.NodeID, p []byte) {})
	}
	sw.InstallGroup(GroupConfig{Group: 1, Epoch: 1, Members: members, HMACKeys: keysFor(4)})
	payload := make([]byte, 64)
	h := &wire.AOMHeader{Kind: wire.AuthNone, Group: 1, Digest: wire.Digest(payload)}
	w := wire.NewWriter(256)
	wire.EncodeAOM(w, h, payload)
	pkt := w.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.handle(senderID, pkt)
	}
}
