package udpnet

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/transport"
)

// freeBook builds an address book with n OS-assigned loopback ports.
func freeBook(t *testing.T, n int) *AddressBook {
	t.Helper()
	entries := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		l, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		entries[transport.NodeID(i)] = l.LocalAddr().String()
		l.Close()
	}
	book, err := NewAddressBook(entries)
	if err != nil {
		t.Fatal(err)
	}
	return book
}

func TestUDPRoundTrip(t *testing.T) {
	book := freeBook(t, 2)
	a, err := Listen(0, book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(1, book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan string, 1)
	var gotFrom atomic.Int32
	b.SetHandler(func(from transport.NodeID, p []byte) {
		gotFrom.Store(int32(from))
		got <- string(p)
	})

	deadline := time.After(5 * time.Second)
	// UDP on loopback is reliable in practice but retry anyway.
	for {
		a.Send(1, []byte("ping"))
		select {
		case msg := <-got:
			if msg != "ping" {
				t.Fatalf("got %q", msg)
			}
			if gotFrom.Load() != 0 {
				t.Fatalf("from = %d, want 0", gotFrom.Load())
			}
			return
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatal("timed out waiting for UDP delivery")
		}
	}
}

// TestUDPAddressFamilies covers the send path's address forms: a
// dual-stack wildcard socket reaching an IPv4 peer (v4-mapped) and an
// IPv6 one, and both reaching it back through a host-less ":port" entry.
func TestUDPAddressFamilies(t *testing.T) {
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv6loopback})
	if err != nil {
		t.Skipf("no IPv6 loopback here: %v", err)
	}
	v6 := probe.LocalAddr().String()
	probe.Close()
	v4book := freeBook(t, 2)
	book, err := NewAddressBook(map[transport.NodeID]string{
		0: fmt.Sprintf(":%d", v4book.Lookup(0).Port),
		1: v4book.Lookup(1).String(),
		2: v6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var conns [3]*Conn
	var got [3]atomic.Int64
	for i := range conns {
		c, err := Listen(transport.NodeID(i), book)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		i := i
		c.SetHandler(func(transport.NodeID, []byte) { got[i].Add(1) })
		conns[i] = c
	}
	for _, hop := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 0}} {
		from, to := hop[0], hop[1]
		before := got[to].Load()
		conns[from].Send(transport.NodeID(to), []byte("hello"))
		deadline := time.Now().Add(2 * time.Second)
		for got[to].Load() == before {
			if time.Now().After(deadline) {
				t.Fatalf("node %d (%v) never heard from node %d (%v)", to, conns[to].LocalAddr(), from, conns[from].LocalAddr())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestUDPSendToUnknownNode(t *testing.T) {
	book := freeBook(t, 1)
	a, err := Listen(0, book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send(99, []byte("void")) // must not panic
}

func TestUDPClosedSend(t *testing.T) {
	book := freeBook(t, 2)
	a, err := Listen(0, book)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(1, []byte("x")) // must not panic
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestUDPListenUnknownID(t *testing.T) {
	book := freeBook(t, 1)
	if _, err := Listen(5, book); err == nil {
		t.Fatal("Listen with unknown ID succeeded")
	}
}

func TestNewAddressBookBadAddr(t *testing.T) {
	if _, err := NewAddressBook(map[transport.NodeID]string{0: "not an address"}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestUDPManyNodes(t *testing.T) {
	const n = 4
	book := freeBook(t, n)
	conns := make([]*Conn, n)
	counts := make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		c, err := Listen(transport.NodeID(i), book)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		idx := i
		c.SetHandler(func(from transport.NodeID, p []byte) { counts[idx].Add(1) })
	}
	// Node 0 broadcasts to everyone else, with retries.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		allGot := true
		for j := 1; j < n; j++ {
			if counts[j].Load() == 0 {
				conns[0].Send(transport.NodeID(j), []byte(fmt.Sprintf("to %d", j)))
				allGot = false
			}
		}
		if allGot {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("not all nodes received the broadcast")
}

// TestUDPSendNeverBlocks floods a peer whose handler is stuck, through
// the smallest socket buffers the kernel grants: every Send must return
// promptly, each packet must be accounted for as sent or dropped on the
// sender, and what the receiver's socket buffer could not hold must show
// up in its kernel-overflow counter once it reads again.
func TestUDPSendNeverBlocks(t *testing.T) {
	book := freeBook(t, 2)
	a, err := ListenConfig(0, book, Config{SndBuf: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenConfig(1, book, Config{RcvBuf: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	release := make(chan struct{})
	var got atomic.Int64
	b.SetHandler(func(transport.NodeID, []byte) {
		<-release
		got.Add(1)
	})

	const sends = 4096
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		for i := 0; i < sends; i++ {
			a.Send(1, payload)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a peer that is not reading")
	}
	sent, full, failed := a.txPkts.Load(), a.drops[dropTxOverflow].Load(), a.drops[dropTxSockErr].Load()
	if sent+full+failed != sends {
		t.Fatalf("sent %d + dropped %d/%d != %d Sends", sent, full, failed, sends)
	}
	close(release)
	if burst == 1 {
		return // only the mmsg path reads the kernel's overflow count
	}
	// The kernel reports its drop count on datagrams queued after the
	// drops, so keep a trickle going until the receiver has seen one.
	deadline := time.Now().Add(5 * time.Second)
	for b.drops[dropRxOverflow].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("receiver got %d of %d packets but counted no kernel overflow", got.Load(), sent)
		}
		a.Send(1, payload)
		time.Sleep(time.Millisecond)
	}
	if lost := int64(a.txPkts.Load()) - got.Load() - int64(b.drops[dropRxOverflow].Load()); lost < 0 {
		t.Fatalf("receiver counted more overflow drops than packets went missing (%d)", lost)
	}
}

// TestUDPCorkedFanOutIsOneSyscall checks the batching contract on the
// mmsg path: a corked four-destination fan-out leaves in one send call,
// and a burst queued on a socket is read in fewer calls than packets.
func TestUDPCorkedFanOutIsOneSyscall(t *testing.T) {
	if burst == 1 {
		t.Skip("no sendmmsg/recvmmsg on this platform")
	}
	f := NewLoopback(FabricConfig{})
	defer f.Close()
	join := func(id transport.NodeID) *Conn {
		c, err := f.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*Conn)
	}
	src := join(0)
	var got atomic.Int64
	for id := transport.NodeID(1); id <= 4; id++ {
		join(id).SetHandler(func(transport.NodeID, []byte) { got.Add(1) })
	}
	src.Cork()
	for id := transport.NodeID(1); id <= 4; id++ {
		src.Send(id, []byte("stamp"))
	}
	if n := src.txCalls.Load(); n != 0 {
		t.Fatalf("%d send calls before Flush, want 0", n)
	}
	src.Flush()
	if calls, pkts := src.txCalls.Load(), src.txPkts.Load(); calls != 1 || pkts != 4 {
		t.Fatalf("fan-out took %d send calls for %d packets, want 1 for 4", calls, pkts)
	}
	waitCount(t, &got, 4)
	src.Send(1, []byte("uncorked"))
	if n := src.txCalls.Load(); n != 2 {
		t.Fatalf("send after Flush did not leave at once (%d calls)", n)
	}

	// Receive side: park the reader in its handler, queue a burst behind
	// it, release — the backlog must come up several datagrams per call.
	sink := join(5)
	release := make(chan struct{})
	var sunk atomic.Int64
	sink.SetHandler(func(transport.NodeID, []byte) {
		<-release
		sunk.Add(1)
	})
	const n = 64
	for i := 0; i < n; i++ {
		src.Send(5, []byte("queued"))
	}
	close(release)
	waitCount(t, &sunk, n)
	if calls, pkts := sink.rxCalls.Load(), sink.rxPkts.Load(); calls >= pkts {
		t.Fatalf("%d receive calls for %d packets: no batching", calls, pkts)
	}
}

func waitCount(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPAllocs guards the packet path's allocation budget: Send frames
// into pooled buffers (none), and a received packet costs exactly the
// payload copy whose ownership passes to the handler.
func TestUDPAllocs(t *testing.T) {
	f := NewLoopback(FabricConfig{Config: Config{RcvBuf: 1 << 20}})
	defer f.Close()
	a, _ := f.Join(1)
	b, _ := f.Join(2)
	var got atomic.Int64
	arrived := make(chan struct{}, 1)
	b.SetHandler(func(transport.NodeID, []byte) {
		got.Add(1)
		select {
		case arrived <- struct{}{}:
		default:
		}
	})
	payload := make([]byte, 64)
	sent := int64(0)
	send := func() {
		a.Send(2, payload)
		sent++
	}
	for i := 0; i < 16; i++ { // warm the pools
		send()
	}
	waitCount(t, &got, sent)
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("Send allocates %.1f per packet, want 0", n)
	}
	waitCount(t, &got, sent)
	// Round trips, so the reader's allocations fall inside the measurement.
	if n := testing.AllocsPerRun(200, func() {
		send()
		for got.Load() < sent {
			<-arrived
		}
	}); n > 1 {
		t.Fatalf("send+receive allocates %.1f per packet, want <= 1", n)
	}
}

func TestUDPDropCounters(t *testing.T) {
	book := freeBook(t, 2)
	a, err := Listen(0, book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send(99, []byte("void"))
	if got := a.drops[dropTxUnknown].Load(); got != 1 {
		t.Fatalf("TxDropUnknown = %d, want 1", got)
	}
	a.Send(1, make([]byte, MaxPayload+1))
	if got := a.drops[dropTxOversize].Load(); got != 1 {
		t.Fatalf("TxDropOversize = %d, want 1", got)
	}
}

func TestUDPFabricLoopback(t *testing.T) {
	f := NewLoopback(FabricConfig{})
	defer f.Close()

	ca, err := f.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := f.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 1)
	cb.SetHandler(func(from transport.NodeID, p []byte) {
		select {
		case got <- struct{}{}:
		default:
		}
	})
	deadline := time.After(5 * time.Second)
	for {
		ca.Send(2, []byte("hello"))
		select {
		case <-got:
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("no delivery over loopback fabric")
		}
	}
}

// TestUDPFabricRejoin models crash–restart: after Close, the same ID
// joins again on a fresh port and peers (which resolve addresses per
// Send) reach the new incarnation.
func TestUDPFabricRejoin(t *testing.T) {
	f := NewLoopback(FabricConfig{})
	defer f.Close()

	ca, err := f.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := f.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(2); err == nil {
		t.Fatal("duplicate Join succeeded")
	}
	oldAddr := cb.(*Conn).LocalAddr().String()
	if err := cb.Close(); err != nil {
		t.Fatal(err)
	}
	cb2, err := f.Join(2)
	if err != nil {
		t.Fatalf("rejoin after close: %v", err)
	}
	if cb2.(*Conn).LocalAddr().String() == oldAddr {
		t.Log("rejoined on the same port (possible but unusual)")
	}
	got := make(chan struct{}, 1)
	cb2.SetHandler(func(from transport.NodeID, p []byte) {
		select {
		case got <- struct{}{}:
		default:
		}
	})
	deadline := time.After(5 * time.Second)
	for {
		ca.Send(2, []byte("again"))
		select {
		case <-got:
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("restarted node unreachable")
		}
	}
}
