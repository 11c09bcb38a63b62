package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/transport"
)

// TestCallOrderedBehindPackets checks that a Call queued after a burst of
// packets sees every one of them applied, whether verification runs
// inline on the delivery goroutine or on a worker pool that finishes out
// of order.
func TestCallOrderedBehindPackets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"inline", -1}, {"pooled", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &fakeConn{id: 1}
			rt := New(Config{Conn: conn, Workers: tc.workers})
			h := &recordingHandler{seen: map[transport.NodeID][]uint64{}}
			rt.Start(h)
			defer rt.Close()
			for round := 1; round <= 20; round++ {
				for i := 0; i < 50; i++ {
					conn.Deliver(5, packet(uint64(i)))
				}
				var seen int
				rt.Call(func() { seen = len(h.seen[5]) })
				if want := 50 * round; seen != want {
					t.Fatalf("round %d: Call saw %d packets applied, want %d", round, seen, want)
				}
			}
		})
	}
}

// TestCallWithoutLoop checks that Call runs fn on the caller when there
// is no loop to run it: before Start, after Close from another
// goroutine, and after Close from the loop itself.
func TestCallWithoutLoop(t *testing.T) {
	rt := New(Config{Workers: -1})
	ran := false
	rt.Call(func() { ran = true })
	if !ran {
		t.Fatal("Call before Start did not run fn")
	}

	rt.Start(&loopChecker{})
	rt.Close()
	<-rt.exited
	ran = false
	rt.Call(func() { ran = true })
	if !ran {
		t.Fatal("Call after Close did not run fn")
	}

	rt = New(Config{Workers: 2})
	rt.Start(&loopChecker{})
	rt.Arm(time.Millisecond, rt.Close)
	select {
	case <-rt.exited:
	case <-time.After(2 * time.Second):
		t.Fatal("loop did not exit after Close from the loop")
	}
	ran = false
	rt.Call(func() { ran = true })
	if !ran {
		t.Fatal("Call after Close from the loop did not run fn")
	}
}

// TestCallRacesClose races Call against Close: whichever wins, fn runs
// exactly once, and Call returns only after it has. In half the
// iterations fn also closes the runtime from the loop, so the loop exits
// right after running it.
func TestCallRacesClose(t *testing.T) {
	for i := 0; i < 1000; i++ {
		rt := New(Config{Workers: i%2*2 - 1, Queue: 8}) // alternate inline and pooled
		rt.Start(&loopChecker{})
		var runs atomic.Int32
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			rt.Call(func() {
				runs.Add(1)
				if i%4 < 2 {
					rt.Close()
				}
			})
			if runs.Load() != 1 {
				t.Errorf("iteration %d: Call returned before fn ran", i)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			rt.Close()
		}()
		close(start)
		wg.Wait()
		<-rt.exited
		if n := runs.Load(); n != 1 {
			t.Fatalf("iteration %d: fn ran %d times, want 1", i, n)
		}
	}
}

// TestCallConcurrentCallers has eight goroutines read and write the same
// unsynchronized state as ApplyEvent through Call while packets flow.
// Under -race this fails if any Call'd function escapes the loop.
func TestCallConcurrentCallers(t *testing.T) {
	conn := &fakeConn{id: 1}
	rt := New(Config{Conn: conn, Workers: 2})
	h := &loopChecker{}
	rt.Start(h)
	defer rt.Close()

	const callers, calls, packets = 8, 200, 2000
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < calls; i++ {
				var now int
				rt.Call(func() {
					h.counter++
					now = h.counter
				})
				if now <= last {
					t.Errorf("counter went from %d to %d across Calls", last, now)
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < packets; i++ {
		conn.Deliver(5, packet(uint64(i)))
	}
	wg.Wait()
	var total int
	rt.Call(func() { total = h.counter })
	if want := callers*calls + packets; total != want {
		t.Fatalf("counter = %d, want %d", total, want)
	}
}
