package simnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/transport"
)

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDirectDelivery(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var got atomic.Value
	b.SetHandler(func(from transport.NodeID, p []byte) {
		got.Store(string(p))
	})
	a.Send(2, []byte("hello"))
	waitFor(t, func() bool { return got.Load() != nil }, "delivery")
	if got.Load().(string) != "hello" {
		t.Fatalf("got %q", got.Load())
	}
}

func TestDelayedDelivery(t *testing.T) {
	net := New(Options{Latency: 2 * time.Millisecond})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var when atomic.Value
	b.SetHandler(func(from transport.NodeID, p []byte) { when.Store(time.Now()) })
	start := time.Now()
	a.Send(2, []byte("x"))
	waitFor(t, func() bool { return when.Load() != nil }, "delayed delivery")
	if elapsed := when.Load().(time.Time).Sub(start); elapsed < 2*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 2ms", elapsed)
	}
}

func TestDelayedDeliveryOrdersByTime(t *testing.T) {
	net := New(Options{Latency: time.Millisecond})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var mu sync.Mutex
	var order []byte
	b.SetHandler(func(from transport.NodeID, p []byte) {
		mu.Lock()
		order = append(order, p[0])
		mu.Unlock()
	})
	for i := byte(0); i < 10; i++ {
		a.Send(2, []byte{i})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 10 }, "10 deliveries")
	mu.Lock()
	defer mu.Unlock()
	for i := byte(0); i < 10; i++ {
		if order[i] != i {
			t.Fatalf("constant-latency packets reordered: %v", order)
		}
	}
}

// TestInboxBound: a node holds at most InboxSize packets not yet handed
// to its handler, counting those the delivery goroutine has already taken
// in a batch; it drops the rest and delivers the accepted ones in order.
func TestInboxBound(t *testing.T) {
	net := New(Options{InboxSize: 4})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	entered := make(chan byte)
	release := make(chan struct{})
	b.SetHandler(func(from transport.NodeID, p []byte) {
		entered <- p[0]
		<-release
	})
	send := func(lo, hi byte) {
		for i := lo; i <= hi; i++ {
			a.Send(2, []byte{i})
		}
	}
	next := func(want byte) {
		t.Helper()
		if got := <-entered; got != want {
			t.Fatalf("handler got packet %d, want %d", got, want)
		}
	}
	send(1, 1)
	next(1)
	send(2, 7) // 1 is in the handler: 2–5 fill the inbox, 6 and 7 overflow
	release <- struct{}{}
	next(2)
	send(8, 9) // 3–5 are still queued behind 2: 8 fits, 9 overflows
	if st := net.Stats(); st.Sent != 9 || st.Dropped != 3 {
		t.Fatalf("sent %d, dropped %d; want 9 and 3", st.Sent, st.Dropped)
	}
	for _, want := range []byte{3, 4, 5, 8} {
		release <- struct{}{}
		next(want)
	}
	release <- struct{}{}
	waitFor(t, func() bool { return net.Stats().Delivered == 6 }, "6 deliveries")
}

func TestDropRate(t *testing.T) {
	net := New(Options{DropRate: 1.0, Seed: 1})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	for i := 0; i < 100; i++ {
		a.Send(2, []byte("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatalf("delivered %d packets with drop rate 1.0", count.Load())
	}
	st := net.Stats()
	if st.Dropped != 100 {
		t.Fatalf("Dropped = %d, want 100", st.Dropped)
	}
}

func TestDropFilter(t *testing.T) {
	// Drops apply only to packets from node 1; node 3's traffic passes.
	net := New(Options{
		DropRate:   1.0,
		DropFilter: func(from, to transport.NodeID) bool { return from == 1 },
		Seed:       7,
	})
	defer net.Close()
	a := net.Join(1)
	c := net.Join(3)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	a.Send(2, []byte("dropme"))
	c.Send(2, []byte("keep"))
	waitFor(t, func() bool { return count.Load() == 1 }, "filtered delivery")
	time.Sleep(5 * time.Millisecond)
	if count.Load() != 1 {
		t.Fatalf("delivered %d, want 1", count.Load())
	}
}

func TestBlockLink(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	net.BlockLink(1, 2, true)
	a.Send(2, []byte("x"))
	time.Sleep(5 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("blocked link delivered a packet")
	}
	net.BlockLink(1, 2, false)
	a.Send(2, []byte("y"))
	waitFor(t, func() bool { return count.Load() == 1 }, "unblocked delivery")
}

func TestBlockNode(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	c := net.Join(3)
	var bCount, cCount atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { bCount.Add(1) })
	c.SetHandler(func(from transport.NodeID, p []byte) { cCount.Add(1) })
	net.BlockNode(2, true)
	a.Send(2, []byte("x"))
	a.Send(3, []byte("x"))
	b.Send(3, []byte("x"))
	waitFor(t, func() bool { return cCount.Load() == 1 }, "a→c delivery")
	time.Sleep(5 * time.Millisecond)
	if bCount.Load() != 0 {
		t.Fatal("blocked node received traffic")
	}
	if cCount.Load() != 1 {
		t.Fatalf("c received %d packets, want 1 (b is blocked)", cCount.Load())
	}
}

func TestTapRewritesAndSuppresses(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var got atomic.Value
	b.SetHandler(func(from transport.NodeID, p []byte) { got.Store(string(p)) })
	net.SetTap(func(from, to transport.NodeID, payload []byte) bool {
		return string(payload) != "suppress"
	})
	a.Send(2, []byte("suppress"))
	a.Send(2, []byte("pass"))
	waitFor(t, func() bool { return got.Load() != nil }, "tapped delivery")
	if got.Load().(string) != "pass" {
		t.Fatalf("got %q", got.Load())
	}
	net.SetTap(nil)
	a.Send(2, []byte("suppress"))
	waitFor(t, func() bool { return got.Load().(string) == "suppress" }, "untapped delivery")
}

func TestSendToUnknownNode(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	a.Send(99, []byte("void"))
	if st := net.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestClosedNodeStopsSending(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(2, []byte("x"))
	time.Sleep(5 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("closed node sent a packet")
	}
}

func TestSequentialHandlerInvocation(t *testing.T) {
	// The handler must never run concurrently with itself.
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var inHandler atomic.Int32
	var violation atomic.Bool
	var done atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) {
		if inHandler.Add(1) != 1 {
			violation.Store(true)
		}
		time.Sleep(10 * time.Microsecond)
		inHandler.Add(-1)
		done.Add(1)
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				a.Send(2, []byte("x"))
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return done.Load() == 100 }, "100 handled packets")
	if violation.Load() {
		t.Fatal("handler ran concurrently")
	}
}

func TestStatsAccounting(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	for i := 0; i < 10; i++ {
		a.Send(2, []byte("x"))
	}
	waitFor(t, func() bool { return count.Load() == 10 }, "deliveries")
	st := net.Stats()
	if st.Sent != 10 || st.Delivered != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateJoinPanics(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	net.Join(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Join did not panic")
		}
	}()
	net.Join(1)
}

func BenchmarkDirectSend(b *testing.B) {
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	dst := net.Join(2)
	var count atomic.Int64
	dst.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(2, payload)
	}
}

func TestLatencyOverride(t *testing.T) {
	// Links to node 9 are near-instant; default links pay 5ms.
	net := New(Options{
		Latency: 5 * time.Millisecond,
		LatencyOverride: func(from, to transport.NodeID) (time.Duration, bool) {
			if to == 9 {
				return 50 * time.Microsecond, true
			}
			return 0, false
		},
	})
	defer net.Close()
	a := net.Join(1)
	slow := net.Join(2)
	fast := net.Join(9)
	var slowAt, fastAt atomic.Value
	slow.SetHandler(func(from transport.NodeID, p []byte) { slowAt.Store(time.Now()) })
	fast.SetHandler(func(from transport.NodeID, p []byte) { fastAt.Store(time.Now()) })
	start := time.Now()
	a.Send(9, []byte("x"))
	a.Send(2, []byte("x"))
	waitFor(t, func() bool { return slowAt.Load() != nil && fastAt.Load() != nil }, "both deliveries")
	fastLat := fastAt.Load().(time.Time).Sub(start)
	slowLat := slowAt.Load().(time.Time).Sub(start)
	if fastLat >= slowLat {
		t.Fatalf("override not applied: fast %v >= slow %v", fastLat, slowLat)
	}
	if slowLat < 5*time.Millisecond {
		t.Fatalf("default latency not applied: %v", slowLat)
	}
}

func TestJitterSpreadsDeliveries(t *testing.T) {
	net := New(Options{Latency: 200 * time.Microsecond, Jitter: 2 * time.Millisecond, Seed: 3})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var mu sync.Mutex
	var times []time.Time
	b.SetHandler(func(from transport.NodeID, p []byte) {
		mu.Lock()
		times = append(times, time.Now())
		mu.Unlock()
	})
	for i := 0; i < 20; i++ {
		a.Send(2, []byte{byte(i)})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(times) == 20 }, "20 deliveries")
	mu.Lock()
	defer mu.Unlock()
	min, max := times[0], times[0]
	for _, tm := range times {
		if tm.Before(min) {
			min = tm
		}
		if tm.After(max) {
			max = tm
		}
	}
	if max.Sub(min) < 500*time.Microsecond {
		t.Fatalf("jitter did not spread deliveries: span %v", max.Sub(min))
	}
}

func TestPerLinkDropDeterminism(t *testing.T) {
	// The drop decision sequence on a link depends only on (seed, from,
	// to) and the packet count on that link — not on traffic elsewhere
	// or goroutine interleaving. Run the same per-link workload twice,
	// the second time with interleaved cross-traffic, and require
	// byte-identical drop patterns.
	pattern := func(cross bool) []bool {
		net := New(Options{DropRate: 0.5, Seed: 42})
		defer net.Close()
		a := net.Join(1)
		b := net.Join(2)
		c := net.Join(3)
		var mu sync.Mutex
		var got []byte
		b.SetHandler(func(from transport.NodeID, p []byte) {
			mu.Lock()
			got = append(got, p[0])
			mu.Unlock()
		})
		c.SetHandler(func(from transport.NodeID, p []byte) {})
		var wg sync.WaitGroup
		if cross {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					a.Send(3, []byte{byte(i)})
				}
			}()
		}
		for i := 0; i < 200; i++ {
			a.Send(2, []byte{byte(i)})
		}
		wg.Wait()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		delivered := make([]bool, 200)
		for _, seq := range got {
			delivered[seq] = true
		}
		return delivered
	}
	base := pattern(false)
	withCross := pattern(true)
	for i := range base {
		if base[i] != withCross[i] {
			t.Fatalf("drop pattern diverged at packet %d with cross-traffic", i)
		}
	}
	// Sanity: rate 0.5 should both drop and deliver something.
	var n int
	for _, d := range base {
		if d {
			n++
		}
	}
	if n == 0 || n == 200 {
		t.Fatalf("drop rate 0.5 delivered %d/200", n)
	}
}

func TestSetDropOverride(t *testing.T) {
	net := New(Options{Seed: 5})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })

	net.SetDrop(1.0, nil)
	a.Send(2, []byte("x"))
	time.Sleep(5 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("dynamic drop override did not drop")
	}
	net.SetDrop(-1, nil) // restore configured behaviour (no drops)
	a.Send(2, []byte("y"))
	waitFor(t, func() bool { return count.Load() == 1 }, "delivery after override removed")
}

func TestManglerDuplicatesCorruptsSwallows(t *testing.T) {
	net := New(Options{Seed: 5})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var mu sync.Mutex
	var got []string
	b.SetHandler(func(from transport.NodeID, p []byte) {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
	})
	net.SetMangler(func(from, to transport.NodeID, payload []byte) [][]byte {
		switch string(payload) {
		case "dup":
			return [][]byte{payload, payload}
		case "corrupt":
			c := append([]byte(nil), payload...)
			c[0] ^= 0xff
			return [][]byte{c}
		case "swallow":
			return [][]byte{}
		}
		return nil
	})
	a.Send(2, []byte("dup"))
	a.Send(2, []byte("corrupt"))
	a.Send(2, []byte("swallow"))
	a.Send(2, []byte("pass"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 4 }, "4 deliveries")
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	counts := map[string]int{}
	for _, s := range got {
		counts[s]++
	}
	corrupted := string([]byte{'c' ^ 0xff}) + "orrupt"
	if counts["dup"] != 2 || counts["pass"] != 1 || counts[corrupted] != 1 {
		mu.Unlock()
		t.Fatalf("mangled deliveries = %q", got)
	}
	if counts["swallow"] != 0 {
		mu.Unlock()
		t.Fatalf("swallowed packet delivered: %q", got)
	}
	mu.Unlock()
	net.SetMangler(nil)
	a.Send(2, []byte("dup"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 5 }, "unmangled delivery")
}

func TestRejoinAfterClose(t *testing.T) {
	// A crashed node (Close) can rejoin under the same ID — the chaos
	// harness's restart lifecycle.
	net := New(Options{})
	defer net.Close()
	a := net.Join(1)
	b := net.Join(2)
	var count atomic.Int64
	b.SetHandler(func(from transport.NodeID, p []byte) { count.Add(1) })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2 := net.Join(1)
	a2.Send(2, []byte("x"))
	waitFor(t, func() bool { return count.Load() == 1 }, "post-restart delivery")
}
