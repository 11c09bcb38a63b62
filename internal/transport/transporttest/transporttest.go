// Package transporttest is the conformance suite for transport.Fabric
// implementations. It asserts the parts of the Conn contract every
// protocol in this repository leans on:
//
//   - packets are delivered, and per-sender order is preserved (gaps
//     from best-effort loss are allowed, reordering is not)
//   - the handler is invoked sequentially from one goroutine
//   - no new handler invocation starts after Close returns
//   - large packets survive intact, also in the middle of a burst of
//     small ones
//   - back-to-back bursts from several senders are delivered completely
//     and in per-sender order while the receiver keeps up
//   - a corked run of mixed-size packets to several destinations arrives
//     with every packet's bytes and boundaries intact, in per-destination
//     order, each slice the handler's own
//   - Send to an unknown node, and oversize Send, return promptly
//     without panicking
//   - a closed node's ID can rejoin (crash–restart)
//
// Both simnet and udpnet run this suite; a future fabric (TCP, RDMA,
// shared memory) gets protocol compatibility by passing it.
package transporttest

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/transport"
)

// Run executes the conformance suite against fresh fabrics produced by
// newFabric. Each subtest gets its own fabric; Run closes them.
func Run(t *testing.T, newFabric func(t *testing.T) transport.Fabric) {
	t.Run("DeliveryAndSenderOrder", func(t *testing.T) { testDeliveryOrder(t, newFabric(t)) })
	t.Run("SequentialHandler", func(t *testing.T) { testSequentialHandler(t, newFabric(t)) })
	t.Run("NoDeliveryAfterClose", func(t *testing.T) { testNoDeliveryAfterClose(t, newFabric(t)) })
	t.Run("BurstFromThreeSenders", func(t *testing.T) { testBurst(t, newFabric(t)) })
	t.Run("LargePacket", func(t *testing.T) { testLargePacket(t, newFabric(t)) })
	t.Run("LargePacketInsideBurst", func(t *testing.T) { testLargeInBurst(t, newFabric(t)) })
	t.Run("CoalescedRun", func(t *testing.T) { testCoalescedRun(t, newFabric(t)) })
	t.Run("SendToUnknownTolerated", func(t *testing.T) { testSendUnknown(t, newFabric(t)) })
	t.Run("OversizeSendTolerated", func(t *testing.T) { testOversize(t, newFabric(t)) })
	t.Run("RejoinAfterClose", func(t *testing.T) { testRejoin(t, newFabric(t)) })
}

func mustJoin(t *testing.T, fab transport.Fabric, id transport.NodeID) transport.Conn {
	t.Helper()
	c, err := fab.Join(id)
	if err != nil {
		t.Fatalf("Join(%d): %v", id, err)
	}
	return c
}

// testDeliveryOrder sends a numbered sequence and asserts the receiver
// sees a (possibly gappy) strictly increasing subsequence — per-sender
// FIFO over a lossy best-effort transport.
func testDeliveryOrder(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)

	const total = 200
	var received atomic.Int64
	var outOfOrder atomic.Int64
	last := int64(-1)
	b.SetHandler(func(from transport.NodeID, pkt []byte) {
		if from != 1 || len(pkt) != 8 {
			return
		}
		seq := int64(binary.LittleEndian.Uint64(pkt))
		if seq <= last {
			outOfOrder.Add(1)
		}
		last = seq
		received.Add(1)
	})
	buf := make([]byte, 8)
	for i := 0; i < total; i++ {
		binary.LittleEndian.PutUint64(buf, uint64(i))
		a.Send(2, buf)
		// The transport owns the slice after Send on zero-copy fabrics;
		// allocate the next frame fresh.
		buf = make([]byte, 8)
	}
	waitFor(t, 5*time.Second, func() bool { return received.Load() >= total/2 },
		"fewer than half the packets delivered")
	if n := outOfOrder.Load(); n != 0 {
		t.Fatalf("%d packets delivered out of per-sender order", n)
	}
}

// testSequentialHandler floods a node from two senders and asserts no
// two handler invocations ever overlap.
func testSequentialHandler(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)
	c := mustJoin(t, fab, 3)

	var inFlight atomic.Int32
	var overlapped atomic.Bool
	var received atomic.Int64
	c.SetHandler(func(from transport.NodeID, pkt []byte) {
		if !inFlight.CompareAndSwap(0, 1) {
			overlapped.Store(true)
		}
		time.Sleep(50 * time.Microsecond) // widen any overlap window
		inFlight.Store(0)
		received.Add(1)
	})
	for i := 0; i < 50; i++ {
		a.Send(3, []byte{byte(i)})
		b.Send(3, []byte{byte(i)})
	}
	waitFor(t, 5*time.Second, func() bool { return received.Load() >= 20 },
		"too few packets delivered to exercise the handler")
	if overlapped.Load() {
		t.Fatal("handler invocations overlapped: not sequential from one goroutine")
	}
}

// testBurst has three senders each fire 1 000 packets back to back at one
// receiver — bursts deep enough to fill a batched receive path — and
// asserts every packet arrives, each sender's in exactly the order sent,
// with no two handler invocations overlapping. Each sender stays within
// a window of the receiver's progress, so a best-effort fabric has no
// buffer overflow to excuse a loss with.
func testBurst(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	const senders, perSender, window = 3, 1000, 64
	recv := mustJoin(t, fab, 100)

	var inFlight atomic.Int32
	var overlapped, misordered atomic.Bool
	var next [senders]atomic.Int64 // next sequence number expected per sender
	recv.SetHandler(func(from transport.NodeID, pkt []byte) {
		if !inFlight.CompareAndSwap(0, 1) {
			overlapped.Store(true)
		}
		defer inFlight.Store(0)
		s := int(from) - 1
		if s < 0 || s >= senders || len(pkt) != 8 {
			return
		}
		if int64(binary.LittleEndian.Uint64(pkt)) != next[s].Load() {
			misordered.Store(true)
		}
		next[s].Add(1)
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		conn := mustJoin(t, fab, transport.NodeID(s+1))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for i := int64(0); i < perSender; {
				if i-next[s].Load() >= window {
					if time.Now().After(deadline) {
						return
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				conn.Send(100, binary.LittleEndian.AppendUint64(nil, uint64(i)))
				i++
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool {
		for s := range next {
			if next[s].Load() < perSender {
				return false
			}
		}
		return true
	}, "burst not delivered completely")
	if misordered.Load() {
		t.Fatal("a sender's packets were delivered out of order or with gaps")
	}
	if overlapped.Load() {
		t.Fatal("handler invocations overlapped: not sequential from one goroutine")
	}
}

// testNoDeliveryAfterClose closes the receiver, settles, and asserts the
// delivery count stays frozen while a peer keeps sending.
func testNoDeliveryAfterClose(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)

	var received atomic.Int64
	b.SetHandler(func(from transport.NodeID, pkt []byte) { received.Add(1) })
	a.Send(2, []byte("pre"))
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// An invocation in flight at Close may complete; settle it out.
	time.Sleep(50 * time.Millisecond)
	frozen := received.Load()
	for i := 0; i < 20; i++ {
		a.Send(2, []byte("post"))
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := received.Load(); got != frozen {
		t.Fatalf("%d deliveries after Close returned", got-frozen)
	}
}

// testLargePacket round-trips a 32 KiB payload — above any small-buffer
// size class, below datagram limits — and checks it arrives intact.
func testLargePacket(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)

	const size = 32 << 10
	var ok atomic.Bool
	var bad atomic.Bool
	b.SetHandler(func(from transport.NodeID, pkt []byte) {
		if len(pkt) != size {
			bad.Store(true)
			return
		}
		for i := range pkt {
			if pkt[i] != byte(i*7) {
				bad.Store(true)
				return
			}
		}
		ok.Store(true)
	})
	mk := func() []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(i * 7)
		}
		return p
	}
	deadline := time.Now().Add(5 * time.Second)
	for !ok.Load() {
		if time.Now().After(deadline) {
			t.Fatal("large packet never delivered intact")
		}
		a.Send(2, mk()) // retried: best-effort transports may drop
		time.Sleep(20 * time.Millisecond)
	}
	if bad.Load() {
		t.Fatal("large packet delivered corrupted or truncated")
	}
}

// testLargeInBurst sends a 60 KiB datagram in the middle of a back-to-back
// run of small ones: a receive path that reads several datagrams per call
// must have room for a full-size one in any slot, and keep the order.
func testLargeInBurst(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)

	const small, large, perRound = 16, 60 << 10, 17
	// Packet i of a round is [round, i, fill...]; the loop-owned cursor
	// tracks how far the current round has arrived in order.
	var done, bad atomic.Bool
	round, cursor := byte(0), 0
	b.SetHandler(func(from transport.NodeID, pkt []byte) {
		if len(pkt) < 2 {
			return
		}
		if pkt[0] != round {
			round, cursor = pkt[0], 0
		}
		want := small
		if cursor == perRound/2 {
			want = large
		}
		if int(pkt[1]) != cursor || len(pkt) != want {
			bad.Store(true)
			return
		}
		for _, c := range pkt[2:] {
			if c != pkt[0]^pkt[1] {
				bad.Store(true)
				return
			}
		}
		if cursor++; cursor == perRound {
			done.Store(true)
		}
	})
	for r := byte(1); r <= 10 && !done.Load(); r++ { // retried: best-effort transports may drop
		for i := 0; i < perRound; i++ {
			p := make([]byte, small)
			if i == perRound/2 {
				p = make([]byte, large)
			}
			p[0], p[1] = r, byte(i)
			for j := 2; j < len(p); j++ {
				p[j] = r ^ byte(i)
			}
			a.Send(2, p)
		}
		deadline := time.Now().Add(500 * time.Millisecond)
		for !done.Load() && !bad.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if bad.Load() {
			t.Fatal("burst around a large packet delivered reordered, truncated or corrupted")
		}
	}
	if !done.Load() {
		t.Fatal("burst around a large packet never delivered completely")
	}
}

// testCoalescedRun sends corked runs of mixed sizes — empty packets, a few
// bytes, near an Ethernet MTU, a 60 KiB one in the middle — interleaved to
// two destinations, the pattern a fabric that shares datagrams between
// packets has to take apart again. Each receiver must see exactly the
// packets addressed to it, byte for byte and in the order sent, never two
// at once; and because handlers keep views into what they receive, it
// appends to every slice it is given, which must not reach the next
// packet. The
// sender waits for each run to arrive before the next, so a best-effort
// fabric has no buffer overflow to excuse a loss with.
func testCoalescedRun(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	const runs = 20
	sizes := []int{1, 100, 0, 1400, 700, 700, 0, 60 << 10, 8, 1399, 1, 0, 300}
	dests := []transport.NodeID{2, 3}
	// Byte j of the k-th packet a destination is sent, all runs counted.
	fill := func(dest transport.NodeID, k, j int) byte { return byte(k*31 + j*7 + int(dest)) }

	var inFlight [2]atomic.Int32
	var overlapped atomic.Bool
	var got [2]atomic.Int64   // packets seen per destination
	var wrong [2]atomic.Int64 // 1 + index of the first bad packet
	for d, id := range dests {
		d, id := d, id
		mustJoin(t, fab, id).SetHandler(func(from transport.NodeID, pkt []byte) {
			if !inFlight[d].CompareAndSwap(0, 1) {
				overlapped.Store(true)
			}
			defer inFlight[d].Store(0)
			k := int(got[d].Load())
			ok := from == 1 && len(pkt) == sizes[k%len(sizes)]
			for j := 0; ok && j < len(pkt); j++ {
				ok = pkt[j] == fill(id, k, j)
			}
			if !ok && wrong[d].Load() == 0 {
				wrong[d].Store(int64(k) + 1)
			}
			_ = append(pkt, 0xff, 0xff, 0xff, 0xff) // the slice is the handler's: growing it must stay inside it
			got[d].Add(1)
		})
	}
	src := mustJoin(t, fab, 1)
	cork := transport.CorkerOf(src)
	for r := 0; r < runs; r++ {
		cork.Cork()
		for i, size := range sizes {
			for n := range dests {
				id := dests[(i+n)%len(dests)] // A B, B A, A B, …
				k := r*len(sizes) + i
				p := make([]byte, size)
				for j := range p {
					p[j] = fill(id, k, j)
				}
				src.Send(id, p)
			}
		}
		cork.Flush()
		want := int64((r + 1) * len(sizes))
		waitFor(t, 5*time.Second, func() bool {
			return wrong[0].Load()+wrong[1].Load() != 0 || got[0].Load() >= want && got[1].Load() >= want
		}, "corked run not delivered completely")
		for d := range dests {
			if k := wrong[d].Load(); k != 0 {
				t.Fatalf("destination %d: packet %d arrived with the wrong sender, length or bytes", dests[d], k-1)
			}
		}
	}
	if overlapped.Load() {
		t.Fatal("handler invocations overlapped: not sequential from one goroutine")
	}
}

// testSendUnknown asserts Send to an ID nobody joined returns promptly
// and doesn't panic or wedge the conn.
func testSendUnknown(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			a.Send(4242, []byte("nobody home"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send to unknown node blocked")
	}
}

// testOversize sends a payload beyond any sane datagram limit and
// asserts the call returns promptly without panicking, and that the conn
// still works afterwards.
func testOversize(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)
	var received atomic.Int64
	b.SetHandler(func(from transport.NodeID, pkt []byte) { received.Add(1) })

	done := make(chan struct{})
	go func() {
		a.Send(2, make([]byte, 70000))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("oversize Send blocked")
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("conn unusable after oversize Send")
		}
		a.Send(2, []byte("still alive"))
		time.Sleep(10 * time.Millisecond)
	}
}

// testRejoin closes a node and joins its ID again — the crash–restart
// model the bench lifecycle depends on.
func testRejoin(t *testing.T, fab transport.Fabric) {
	defer fab.Close()
	a := mustJoin(t, fab, 1)
	b := mustJoin(t, fab, 2)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b2, err := fab.Join(2)
	if err != nil {
		t.Fatalf("rejoin after Close: %v", err)
	}
	var received atomic.Int64
	b2.SetHandler(func(from transport.NodeID, pkt []byte) { received.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejoined node never received a packet")
		}
		a.Send(2, []byte("welcome back"))
		time.Sleep(10 * time.Millisecond)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
