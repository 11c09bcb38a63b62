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

// TestUDPCorkWindowDatagrams pins what a cork window puts on the wire: one
// datagram per destination while the messages fit an Ethernet MTU, all of
// a window's datagrams in one send call on the mmsg path, and one
// datagram and one call per message outside a window.
func TestUDPCorkWindowDatagrams(t *testing.T) {
	for _, tc := range []struct {
		name          string
		corked        bool
		msgs, size    int
		peers         int // messages go round-robin to this many peers
		dgrams, calls uint64
	}{
		{"8x100B to one peer", true, 8, 100, 1, 1, 1},
		{"8x100B to four peers", true, 8, 100, 4, 4, 1},
		{"3x700B to one peer", true, 3, 700, 1, 2, 1},
		{"1x60KiB between 2x100B", true, 3, 0, 1, 3, 1}, // sizes set below
		{"3x100B uncorked", false, 3, 100, 1, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewLoopback(FabricConfig{})
			defer f.Close()
			src := joinConn(t, f, 0)
			var got atomic.Int64
			for id := 1; id <= tc.peers; id++ {
				joinConn(t, f, transport.NodeID(id)).SetHandler(func(transport.NodeID, []byte) { got.Add(1) })
			}
			if tc.corked {
				src.Cork()
			}
			for i := 0; i < tc.msgs; i++ {
				size := tc.size
				if size == 0 { // the large-message case: it travels alone, in order
					size = []int{100, 60 << 10, 100}[i]
				}
				src.Send(transport.NodeID(1+i%tc.peers), make([]byte, size))
			}
			if tc.corked {
				if n := src.txCalls.Load(); n != 0 {
					t.Fatalf("%d send calls before Flush, want 0", n)
				}
				src.Flush()
			}
			if pkts, dgrams := src.txPkts.Load(), src.txDgrams.Load(); pkts != uint64(tc.msgs) || dgrams != tc.dgrams {
				t.Fatalf("%d messages left in %d datagrams, want %d in %d", pkts, dgrams, tc.msgs, tc.dgrams)
			}
			if calls := src.txCalls.Load(); burst > 1 && calls != tc.calls {
				t.Fatalf("%d send calls, want %d", calls, tc.calls)
			}
			waitCount(t, &got, int64(tc.msgs))
			src.Send(1, []byte("after the window"))
			if n := src.txDgrams.Load(); n != tc.dgrams+1 {
				t.Fatalf("send after Flush did not leave at once (%d datagrams)", n)
			}
		})
	}
}

func joinConn(t *testing.T, f *Fabric, id transport.NodeID) *Conn {
	t.Helper()
	c, err := f.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*Conn)
}

// TestUDPNestedCork checks the nesting rule two corking goroutines rely
// on: an inner Flush transmits what is held but the outer window stays
// open, and a send from a goroutine that never corked is out by the time
// the last holder flushes.
func TestUDPNestedCork(t *testing.T) {
	f := NewLoopback(FabricConfig{})
	defer f.Close()
	src := joinConn(t, f, 0)
	var got atomic.Int64
	joinConn(t, f, 1).SetHandler(func(transport.NodeID, []byte) { got.Add(1) })

	src.Cork() // outer: say the reader's burst
	src.Cork() // inner: the loop's run of events
	src.Send(1, []byte("inner"))
	if n := src.txDgrams.Load(); n != 0 {
		t.Fatalf("%d datagrams left inside two windows, want 0", n)
	}
	src.Flush() // the loop is about to block
	if n := src.txDgrams.Load(); n != 1 {
		t.Fatalf("inner Flush transmitted %d datagrams, want 1", n)
	}
	src.Send(1, []byte("outer"))
	bystander := make(chan struct{})
	go func() {
		src.Send(1, []byte("bystander"))
		close(bystander)
	}()
	<-bystander
	if n := src.txDgrams.Load(); n != 1 {
		t.Fatalf("the outer window did not hold after the inner Flush (%d datagrams)", n)
	}
	src.Flush()
	if pkts, dgrams := src.txPkts.Load(), src.txDgrams.Load(); pkts != 3 || dgrams != 2 {
		t.Fatalf("after the last Flush: %d messages in %d datagrams, want 3 in 2", pkts, dgrams)
	}
	src.Flush() // unmatched: only transmits
	src.Send(1, []byte("uncorked"))
	if n := src.txDgrams.Load(); n != 3 {
		t.Fatalf("send after every window closed did not leave at once (%d datagrams)", n)
	}
	waitCount(t, &got, 4)
}

// TestUDPUnmatchedFlush pins what a Flush with no Cork of its own can do
// to another holder's window: end it early, never worse. The count does
// not go negative (one Cork afterwards still opens a window) and no send
// is left held once the holder has flushed.
func TestUDPUnmatchedFlush(t *testing.T) {
	f := NewLoopback(FabricConfig{})
	defer f.Close()
	src := joinConn(t, f, 0)
	var got atomic.Int64
	joinConn(t, f, 1).SetHandler(func(transport.NodeID, []byte) { got.Add(1) })

	src.Cork() // the holder's window
	src.Send(1, []byte("held"))
	stray := make(chan struct{})
	go func() {
		src.Flush() // a third party's, unmatched
		src.Flush()
		close(stray)
	}()
	<-stray
	if n := src.txDgrams.Load(); n != 1 {
		t.Fatalf("stray Flush transmitted %d datagrams, want 1", n)
	}
	src.Send(1, []byte("window ended early"))
	if n := src.txDgrams.Load(); n != 2 {
		t.Fatalf("send held with no window open (%d datagrams)", n)
	}
	src.Flush() // the holder's own, now with nothing to end
	src.Cork()
	src.Send(1, []byte("a"))
	src.Send(1, []byte("b"))
	if n := src.txDgrams.Load(); n != 2 {
		t.Fatalf("one Cork after the stray Flushes did not open a window (%d datagrams)", n)
	}
	src.Flush()
	src.Send(1, []byte("uncorked"))
	if pkts, dgrams := src.txPkts.Load(), src.txDgrams.Load(); pkts != 5 || dgrams != 4 {
		t.Fatalf("%d messages in %d datagrams, want 5 in 4", pkts, dgrams)
	}
	waitCount(t, &got, 5)
}

// TestUDPReaderBurstIsCorkWindow checks both halves of the receive side:
// a backlog comes up several datagrams per receive call (mmsg path), and
// what the handlers of one burst send — here an echo per message — leaves
// packed, flushed before the reader blocks again.
func TestUDPReaderBurstIsCorkWindow(t *testing.T) {
	f := NewLoopback(FabricConfig{})
	defer f.Close()
	src, sink := joinConn(t, f, 0), joinConn(t, f, 1)
	var echoed atomic.Int64
	src.SetHandler(func(transport.NodeID, []byte) { echoed.Add(1) })
	release := make(chan struct{})
	sink.SetHandler(func(from transport.NodeID, p []byte) {
		<-release // park the reader so a backlog queues behind it
		sink.Send(from, p)
	})
	const n = 64
	for i := 0; i < n; i++ {
		src.Send(1, []byte("queued"))
	}
	close(release)
	waitCount(t, &echoed, n)
	if calls, dgrams := sink.rxCalls.Load(), sink.rxDgrams.Load(); burst > 1 && calls >= dgrams {
		t.Fatalf("%d receive calls for %d datagrams: no batching", calls, dgrams)
	}
	if pkts, dgrams := sink.txPkts.Load(), sink.txDgrams.Load(); pkts != n || burst > 1 && dgrams >= pkts {
		t.Fatalf("%d echoes left in %d datagrams: the reader's burst did not pack them", pkts, dgrams)
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
// into pooled buffers (none), and a received datagram costs exactly the
// one copy that handlers keep views into, however many messages share
// it.
func TestUDPAllocs(t *testing.T) {
	f := NewLoopback(FabricConfig{Config: Config{RcvBuf: 1 << 20}})
	defer f.Close()
	a, b := joinConn(t, f, 1), joinConn(t, f, 2)
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
	const perDgram = 8
	if n := testing.AllocsPerRun(200, func() {
		a.Cork()
		for i := 0; i < perDgram; i++ {
			send()
		}
		a.Flush()
		for got.Load() < sent {
			<-arrived
		}
	}); n > 1 {
		t.Fatalf("send+receive allocates %.1f per datagram of %d messages, want <= 1", n, perDgram)
	}
}

// TestUDPDropCounters checks that drops are counted in messages, like the
// packet counters they are read against: a datagram the socket refuses
// counts every message it carried, and a frame cut short delivers its
// well-formed prefix and counts the remainder once.
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
	a.Send(1, make([]byte, MaxPayload)) // the largest message still fits a datagram
	if sent, failed := a.txPkts.Load(), a.drops[dropTxSockErr].Load(); sent != 1 || failed != 0 {
		t.Fatalf("MaxPayload message: sent %d, socket errors %d, want 1 and 0", sent, failed)
	}

	// An IPv6 peer is unreachable from this IPv4 socket: the whole packed
	// datagram is refused, three messages at once.
	book.Set(7, &net.UDPAddr{IP: net.IPv6loopback, Port: 9})
	a.Cork()
	for i := 0; i < 3; i++ {
		a.Send(7, []byte("nowhere"))
	}
	a.Flush()
	if got, sent := a.drops[dropTxSockErr].Load(), a.txPkts.Load(); got != 3 || sent != 1 {
		t.Fatalf("refused datagram of 3 messages: TxDropSockErr = %d, tx packets = %d, want 3 and 1", got, sent)
	}

	// Receive side, with hand-made frames from a bare socket.
	var got atomic.Int64
	a.SetHandler(func(from transport.NodeID, p []byte) {
		if from == 5 && string(p) == "ok" {
			got.Add(1)
		}
	})
	raw, err := net.DialUDP("udp", nil, a.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, frame := range [][]byte{
		{5, 0}, // shorter than the sender ID
		{5, 0, 0, 0, 2, 0, 'o', 'k', 100, 0, 'x'},       // second length overruns the datagram
		{5, 0, 0, 0, 2, 0, 'o', 'k', 2, 0, 'o', 'k', 7}, // one byte where a length should be
	} {
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &got, 3)
	deadline := time.Now().Add(5 * time.Second)
	for a.drops[dropRxShort].Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if short, pkts, dgrams := a.drops[dropRxShort].Load(), a.rxPkts.Load(), a.rxDgrams.Load(); short != 3 || pkts != 3 || dgrams != 3 {
		t.Fatalf("RxDropShort = %d, rx packets = %d, rx datagrams = %d, want 3 each", short, pkts, dgrams)
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
