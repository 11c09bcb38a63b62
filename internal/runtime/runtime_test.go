package runtime

import (
	"crypto/sha256"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/transport"
)

// fakeConn is a minimal transport.Conn whose Deliver method plays the
// role of the network's single delivery goroutine.
type fakeConn struct {
	id transport.NodeID
	mu sync.Mutex
	h  transport.Handler
}

func (c *fakeConn) ID() transport.NodeID                 { return c.id }
func (c *fakeConn) Send(to transport.NodeID, pkt []byte) {}
func (c *fakeConn) SetHandler(h transport.Handler) {
	c.mu.Lock()
	c.h = h
	c.mu.Unlock()
}
func (c *fakeConn) Close() error { return nil }
func (c *fakeConn) Deliver(from transport.NodeID, pkt []byte) {
	c.mu.Lock()
	h := c.h
	c.mu.Unlock()
	if h != nil {
		h(from, pkt)
	}
}

// recordingHandler burns a little CPU per packet in VerifyPacket (so
// workers genuinely overlap and finish out of order) and records the
// order events reach ApplyEvent. seen is deliberately unsynchronized:
// under -race it proves ApplyEvent is single-threaded.
type recordingHandler struct {
	seen map[transport.NodeID][]uint64
	n    atomic.Int64
	drop func(pkt []byte) bool
}

type seqEvent struct {
	seq uint64
}

func (h *recordingHandler) VerifyPacket(from transport.NodeID, pkt []byte) Event {
	if h.drop != nil && h.drop(pkt) {
		return nil
	}
	// Unequal per-packet work so later packets can overtake earlier ones
	// inside the pool if ordering were broken.
	sum := pkt
	for i := 0; i < int(pkt[0])%7+1; i++ {
		s := sha256.Sum256(sum)
		sum = s[:]
	}
	var seq uint64
	for _, b := range pkt[:8] {
		seq = seq<<8 | uint64(b)
	}
	return seqEvent{seq: seq}
}

func (h *recordingHandler) ApplyEvent(from transport.NodeID, ev Event) {
	h.seen[from] = append(h.seen[from], ev.(seqEvent).seq)
	h.n.Add(1)
}

func packet(seq uint64) []byte {
	p := make([]byte, 16)
	for i := 0; i < 8; i++ {
		p[7-i] = byte(seq >> (8 * i))
	}
	return p
}

// TestPerSenderFIFO drives interleaved packet streams from many senders
// through the parallel verification stage and checks every sender's
// packets are applied in exactly the order they arrived.
func TestPerSenderFIFO(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: 8})
	h := &recordingHandler{seen: map[transport.NodeID][]uint64{}}
	rt.Start(h)
	defer rt.Close()

	const senders, perSender = 7, 500
	for i := 0; i < perSender; i++ {
		for s := 0; s < senders; s++ {
			conn.Deliver(transport.NodeID(100+s), packet(uint64(i)))
		}
	}
	rt.Flush()
	if got := h.n.Load(); got != senders*perSender {
		t.Fatalf("applied %d events, want %d", got, senders*perSender)
	}
	for s := 0; s < senders; s++ {
		got := h.seen[transport.NodeID(100+s)]
		if len(got) != perSender {
			t.Fatalf("sender %d: %d events, want %d", s, len(got), perSender)
		}
		for i, seq := range got {
			if seq != uint64(i) {
				t.Fatalf("sender %d: event %d has seq %d — FIFO violated", s, i, seq)
			}
		}
	}
}

// TestDroppedPacketsSkipApply checks a nil verdict from VerifyPacket
// never reaches ApplyEvent and does not stall the ordered queue.
func TestDroppedPacketsSkipApply(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: 4})
	h := &recordingHandler{
		seen: map[transport.NodeID][]uint64{},
		drop: func(pkt []byte) bool { return pkt[7]%2 == 1 }, // odd seqs
	}
	rt.Start(h)
	defer rt.Close()

	for i := 0; i < 200; i++ {
		conn.Deliver(9, packet(uint64(i)))
	}
	rt.Flush()
	got := h.seen[9]
	if len(got) != 100 {
		t.Fatalf("applied %d events, want 100", len(got))
	}
	for i, seq := range got {
		if seq != uint64(2*i) {
			t.Fatalf("event %d has seq %d, want %d", i, seq, 2*i)
		}
	}
}

// TestInlineMode checks Workers < 0 verifies on the delivery goroutine
// and still applies in order on the loop.
func TestInlineMode(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: -1})
	if rt.Workers() != 0 {
		t.Fatalf("Workers() = %d in inline mode, want 0", rt.Workers())
	}
	h := &recordingHandler{seen: map[transport.NodeID][]uint64{}}
	rt.Start(h)
	defer rt.Close()
	for i := 0; i < 300; i++ {
		conn.Deliver(3, packet(uint64(i)))
	}
	rt.Flush()
	got := h.seen[3]
	if len(got) != 300 {
		t.Fatalf("applied %d events, want 300", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("event %d has seq %d — order violated", i, seq)
		}
	}
	if rt.VerifyBusy() == 0 || rt.ApplyBusy() == 0 {
		t.Fatalf("busy counters not advancing: verify=%v apply=%v", rt.VerifyBusy(), rt.ApplyBusy())
	}
}

// loopChecker verifies that ApplyEvent, Call'd functions, and timer
// callbacks all run on the same goroutine by mutating an unsynchronized
// counter — any overlap is a -race failure.
type loopChecker struct {
	counter int
	applied atomic.Int64
}

func (h *loopChecker) VerifyPacket(from transport.NodeID, pkt []byte) Event { return pkt }
func (h *loopChecker) ApplyEvent(from transport.NodeID, ev Event) {
	h.counter++
	h.applied.Add(1)
}

// TestTimersShareLoopWithApply floods packets while a fast periodic timer
// and repeated one-shot timers mutate the same unsynchronized state as
// ApplyEvent. Run under -race this fails if any callback escapes the loop.
func TestTimersShareLoopWithApply(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: 4})
	h := &loopChecker{}
	rt.Start(h)
	defer rt.Close()

	ticks := 0
	rt.ArmEvery(time.Millisecond, func() {
		h.counter++
		ticks++
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// The transport contract forbids concurrent handler
				// calls, so extra goroutines go through Call instead.
				rt.Call(func() { h.counter++ })
			}
		}(g)
	}
	for i := 0; i < 1000; i++ {
		conn.Deliver(5, packet(uint64(i)))
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && h.applied.Load() < 1000 {
		time.Sleep(time.Millisecond)
	}
	rt.Flush()
	if h.applied.Load() != 1000 {
		t.Fatalf("applied %d packets, want 1000", h.applied.Load())
	}
}

// TestTimerFireAndCancel covers one-shot firing, cancellation before
// firing, periodic repetition, and cancellation from inside the callback.
func TestTimerFireAndCancel(t *testing.T) {
	rt := New(Config{Workers: 1})
	h := &loopChecker{}
	rt.Start(h)
	defer rt.Close()

	fired := make(chan string, 64)
	rt.Arm(5*time.Millisecond, func() { fired <- "oneshot" })
	dead := rt.Arm(10*time.Millisecond, func() { fired <- "canceled" })
	if !rt.Cancel(dead) {
		t.Fatal("Cancel returned false for an armed timer")
	}
	if rt.Cancel(dead) {
		t.Fatal("Cancel returned true for an already-canceled timer")
	}

	var periodicID TimerID
	periodicFires := 0
	periodicID = rt.ArmEvery(3*time.Millisecond, func() {
		periodicFires++
		fired <- "periodic"
		if periodicFires == 3 {
			if !rt.Cancel(periodicID) {
				t.Error("self-Cancel of periodic timer returned false")
			}
		}
	})

	got := map[string]int{}
	timeout := time.After(2 * time.Second)
	for got["oneshot"] < 1 || got["periodic"] < 3 {
		select {
		case s := <-fired:
			got[s]++
		case <-timeout:
			t.Fatalf("timed out; fired so far: %v", got)
		}
	}
	// Give canceled timers a chance to misfire.
	time.Sleep(30 * time.Millisecond)
	close(fired)
	for s := range fired {
		got[s]++
	}
	if got["canceled"] != 0 {
		t.Fatal("canceled one-shot timer fired")
	}
	if got["periodic"] > 3 {
		t.Fatalf("periodic timer fired %d times after self-cancel, want 3", got["periodic"])
	}
	if got["oneshot"] != 1 {
		t.Fatalf("one-shot fired %d times, want 1", got["oneshot"])
	}
}

// TestCloseFromLoop checks Close can be called from a timer callback
// (replica shutdown paths do this) without deadlocking.
func TestCloseFromLoop(t *testing.T) {
	rt := New(Config{Workers: 2})
	rt.Start(&loopChecker{})
	done := make(chan struct{})
	rt.Arm(time.Millisecond, func() {
		rt.Close()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close from loop deadlocked")
	}
}

// TestConcurrentLoad hammers the runtime from one delivery goroutine per
// conn-contract plus injectors and timers, as a -race soak.
func TestConcurrentLoad(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: 6, Queue: 256})
	h := &recordingHandler{seen: map[transport.NodeID][]uint64{}}
	rt.Start(h)
	defer rt.Close()

	for i := 0; i < 8; i++ {
		rt.ArmEvery(time.Millisecond, func() {})
	}
	const total = 5000
	for i := 0; i < total; i++ {
		conn.Deliver(transport.NodeID(i%16), packet(uint64(i/16)))
	}
	rt.Flush()
	if got := h.n.Load(); got != total {
		t.Fatalf("applied %d, want %d", got, total)
	}
	if rt.Busy() == 0 {
		t.Fatal("Busy() did not advance")
	}
}

// expensiveHandler reports public-key-grade verification cost.
type expensiveHandler struct{ loopChecker }

func (*expensiveHandler) ExpensiveVerify() bool { return true }

// TestWorkersDefault pins the Workers == 0 rule: cheap verification runs
// inline on the delivery goroutine, an ExpensiveVerifier gets the pool,
// and an explicit count overrides the handler either way.
func TestWorkersDefault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		h       Handler
		pooled  bool
	}{
		{"cheap/default", 0, &loopChecker{}, false},
		{"expensive/default", 0, &expensiveHandler{}, true},
		{"cheap/forced-pool", 2, &loopChecker{}, true},
		{"expensive/forced-inline", -1, &expensiveHandler{}, false},
	} {
		rt := New(Config{Workers: tc.workers})
		rt.Start(tc.h)
		if got := rt.Workers() > 0; got != tc.pooled {
			t.Errorf("%s: Workers() = %d, want pooled = %v", tc.name, rt.Workers(), tc.pooled)
		}
		rt.Close()
	}
}

// corkConn is a fakeConn that records how the loop brackets its sends.
type corkConn struct {
	fakeConn
	mu  sync.Mutex
	log []string
}

func (c *corkConn) record(s string) {
	c.mu.Lock()
	c.log = append(c.log, s)
	c.mu.Unlock()
}
func (c *corkConn) Cork()                                { c.record("cork") }
func (c *corkConn) Flush()                               { c.record("flush") }
func (c *corkConn) Send(to transport.NodeID, pkt []byte) { c.record("send") }

// replyHandler sends one packet per applied event, as a replica replies.
type replyHandler struct {
	conn    transport.Conn
	applied atomic.Int64
}

func (h *replyHandler) VerifyPacket(from transport.NodeID, pkt []byte) Event { return pkt }
func (h *replyHandler) ApplyEvent(from transport.NodeID, ev Event) {
	h.conn.Send(from, ev.([]byte))
	h.applied.Add(1)
}

// TestLoopCorksRunsOfEvents checks the loop's use of transport.Corker:
// every send of a run of events (and of a timer callback) happens corked,
// and a flush follows before the loop goes back to waiting.
func TestLoopCorksRunsOfEvents(t *testing.T) {
	for _, workers := range []int{-1, 2} {
		conn := &corkConn{}
		rt := New(Config{Conn: conn, Workers: workers})
		h := &replyHandler{conn: conn}
		rt.Start(h)
		for i := 0; i < 100; i++ {
			conn.Deliver(7, packet(uint64(i)))
		}
		fired := make(chan struct{})
		rt.Arm(time.Millisecond, func() {
			conn.Send(7, nil)
			close(fired)
		})
		<-fired
		rt.Flush()
		// Flush returns from inside the loop's current run; give the run
		// its closing flush before reading the log.
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			conn.mu.Lock()
			n := len(conn.log)
			settled := n > 0 && conn.log[n-1] == "flush"
			conn.mu.Unlock()
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
		rt.Close()
		sends, depth := conn.replay(t)
		if sends != 101 || depth != 0 {
			t.Fatalf("workers=%d: %d sends (want 101), %d windows left open", workers, sends, depth)
		}
	}
}

// replay walks the log: every send must fall inside a window and, windows
// nesting by count on a shared conn, every flush must end one the loop
// opened. It returns the sends seen and the windows still open.
func (c *corkConn) replay(t *testing.T) (sends, depth int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, op := range c.log {
		switch op {
		case "cork":
			depth++
		case "flush":
			if depth--; depth < 0 {
				t.Fatalf("log[%d]: flush without a cork of the loop's own: %v", i, c.log)
			}
		case "send":
			if sends++; depth == 0 {
				t.Fatalf("log[%d]: send outside a cork", i)
			}
		}
	}
	return sends, depth
}

// gateHandler's verification blocks until the gate opens.
type gateHandler struct{ gate chan struct{} }

func (h *gateHandler) VerifyPacket(transport.NodeID, []byte) Event { <-h.gate; return nil }
func (h *gateHandler) ApplyEvent(transport.NodeID, Event)          {}

// TestLoopCorkBalancedOnStop stops the runtime while the loop is parked,
// flushed, on an unverified head: it must not flush a second time, which
// would end a window some other holder of the conn has open.
func TestLoopCorkBalancedOnStop(t *testing.T) {
	conn := &corkConn{}
	rt := New(Config{Conn: conn, Workers: 2})
	h := &gateHandler{gate: make(chan struct{})}
	defer close(h.gate)
	rt.Start(h)
	conn.Deliver(7, packet(1))
	logLen := func() int {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.log)
	}
	waitLen := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); logLen() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("log stuck at %v, want %d entries", conn.log, n)
			}
		}
	}
	waitLen(2) // cork, flush: parked
	rt.Close()
	waitLen(4) // cork, flush: the run's closing pair
	time.Sleep(5 * time.Millisecond)
	if _, depth := conn.replay(t); depth != 0 || logLen() != 4 {
		t.Fatalf("stop while parked left %d windows open, log %v", depth, conn.log)
	}
}

// countHandler verifies and applies without allocating.
type countHandler struct{ applied atomic.Int64 }

func (h *countHandler) VerifyPacket(transport.NodeID, []byte) Event { return h }
func (h *countHandler) ApplyEvent(transport.NodeID, Event)          { h.applied.Add(1) }

// TestPacketPathAllocs guards the runtime's own allocation budget from
// delivery to apply: none inline, and none on the pooled path either now
// that tasks are recycled and carry a ready flag instead of a channel.
func TestPacketPathAllocs(t *testing.T) {
	for _, workers := range []int{-1, 2} {
		conn := &fakeConn{id: 1}
		rt := New(Config{Conn: conn, Workers: workers})
		h := &countHandler{}
		rt.Start(h)
		pkt := packet(1)
		for i := 0; i < 64; i++ { // warm the task pool
			conn.Deliver(2, pkt)
		}
		for h.applied.Load() < 64 {
			time.Sleep(time.Millisecond)
		}
		sent := int64(64)
		if n := testing.AllocsPerRun(1000, func() {
			conn.Deliver(2, pkt)
			sent++
			for h.applied.Load() < sent {
				stdruntime.Gosched()
			}
		}); n != 0 {
			t.Errorf("workers=%d: %.1f allocs per packet from delivery to apply, want 0", workers, n)
		}
		rt.Close()
	}
}

func TestTimerScaleStretchesTimers(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.Start(&loopChecker{})
	defer rt.Close()

	// With a 20x slowdown a 5ms timer must not fire before ~100ms; with
	// nominal scale it fires almost immediately. Measure both.
	rt.SetTimerScale(20)
	slow := make(chan time.Time, 1)
	start := time.Now()
	rt.Arm(5*time.Millisecond, func() { slow <- time.Now() })

	rt.SetTimerScale(1)
	fast := make(chan time.Time, 1)
	rt.Arm(5*time.Millisecond, func() { fast <- time.Now() })

	select {
	case at := <-fast:
		if d := at.Sub(start); d > 80*time.Millisecond {
			t.Fatalf("nominal timer took %v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("nominal timer never fired")
	}
	select {
	case at := <-slow:
		if d := at.Sub(start); d < 80*time.Millisecond {
			t.Fatalf("skewed timer fired after %v, want >= ~100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("skewed timer never fired")
	}
}

// batchingHandler is a recordingHandler that also implements
// BatchVerifier; it counts batched calls and their sizes.
type batchingHandler struct {
	recordingHandler
	batches     atomic.Int64
	batchedPkts atomic.Int64
}

func (h *batchingHandler) VerifyPacketBatch(froms []transport.NodeID, pkts [][]byte) []Event {
	h.batches.Add(1)
	h.batchedPkts.Add(int64(len(pkts)))
	out := make([]Event, len(pkts))
	for i := range pkts {
		out[i] = h.VerifyPacket(froms[i], pkts[i])
	}
	return out
}

// TestBatchVerifierFIFO checks that the batched drain path preserves
// per-sender FIFO, drops nil verdicts, and actually forms batches.
func TestBatchVerifierFIFO(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: 4})
	h := &batchingHandler{}
	h.seen = map[transport.NodeID][]uint64{}
	h.drop = func(pkt []byte) bool { return pkt[7]%5 == 3 } // drop seq ≡ 3 (mod 5), seq < 256
	rt.Start(h)
	defer rt.Close()

	const senders, perSender = 5, 200
	for i := 0; i < perSender; i++ {
		for s := 0; s < senders; s++ {
			conn.Deliver(transport.NodeID(100+s), packet(uint64(i)))
		}
	}
	rt.Flush()
	want := 0
	for i := 0; i < perSender; i++ {
		if i%5 != 3 {
			want++
		}
	}
	if got := h.n.Load(); got != int64(senders*want) {
		t.Fatalf("applied %d events, want %d", got, senders*want)
	}
	for s := 0; s < senders; s++ {
		got := h.seen[transport.NodeID(100+s)]
		j := 0
		for i := 0; i < perSender; i++ {
			if i%5 == 3 {
				continue
			}
			if got[j] != uint64(i) {
				t.Fatalf("sender %d: event %d has seq %d, want %d — FIFO violated", s, j, got[j], i)
			}
			j++
		}
	}
	if h.batches.Load() == 0 || h.batchedPkts.Load() < 2 {
		t.Fatalf("no multi-packet batches formed (batches=%d pkts=%d)", h.batches.Load(), h.batchedPkts.Load())
	}
}
