package bench

import (
	"fmt"
	"testing"
	"time"

	"neobft/internal/runtime"
)

// udpProtocols is one representative per protocol family — the systems
// that must commit operations over real sockets for the deployment path
// to be credible.
var udpProtocols = []Protocol{Unreplicated, NeoHM, PBFT, Zyzzyva, HotStuff, MinBFT}

// TestUDPLoopbackAllProtocols drives every protocol family through the
// shared bench builder over real loopback UDP sockets: the same Build
// path the simnet experiments use, with Transport switched.
func TestUDPLoopbackAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test")
	}
	for _, p := range udpProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			sys := Build(Options{Protocol: p, Transport: "udp", ClientTimeout: 300 * time.Millisecond})
			defer sys.Close()
			if sys.Transport != "udp" {
				t.Fatalf("sys.Transport = %q, want udp", sys.Transport)
			}
			cl := sys.NewClient(1)
			const ops = 20
			for i := 0; i < ops; i++ {
				if _, err := cl.Invoke([]byte(fmt.Sprintf("op-%d", i)), 10*time.Second); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			waitCommitted(t, sys, ops)
		})
	}
}

// TestUDPLoopbackUnderConcurrentLoad keeps eight closed-loop clients on
// every protocol family over real sockets. Only under concurrent load do
// cork windows hold several messages, and udpnet then packs them per
// destination — which changes the order in which one sender's datagrams
// reach *different* nodes. A protocol that leaned on that order stalls
// here for good (HotStuff did, within ~200 views: a proposal that overtook
// its parent's was dropped). So the test asserts progress in the second
// half of the window, not a rate or the absence of client retransmissions
// — on a loaded runner one lost datagram is several lost messages.
func TestUDPLoopbackUnderConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test")
	}
	for _, p := range udpProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			sys := Build(Options{Protocol: p, Transport: "udp", ClientTimeout: 300 * time.Millisecond})
			defer sys.Close()
			mid := make(chan uint64, 1)
			go func() {
				time.Sleep(300 * time.Millisecond)
				mid <- sys.Committed()
			}()
			res := Run(sys, Load{Clients: 8, Warmup: 50 * time.Millisecond, Duration: 550 * time.Millisecond, OpTimeout: 2 * time.Second})
			if half, end := <-mid, sys.Committed(); half == 0 || end <= half {
				t.Fatalf("stalled: %d operations committed by 300 ms, %d by 600 ms (%d client timeouts)", half, end, res.Errors)
			}
		})
	}
}

// waitCommitted polls until replica 0 has executed want operations. A
// client's quorum can complete on the other replicas' replies, so replica
// 0 may still have the last operation in flight when Invoke returns.
func waitCommitted(t *testing.T, sys *System, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sys.Committed() < want {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 committed %d, want >= %d", sys.Committed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVerifyPlacement pins where each system's replicas verify packets
// under the default VerifyWorkers: Neo-PK's signatures keep the pooled,
// batched stage; MAC-authenticated systems verify on the delivery
// goroutine.
func TestVerifyPlacement(t *testing.T) {
	for p, pooled := range map[Protocol]bool{NeoPK: true, NeoHM: false, PBFT: false} {
		sys := Build(Options{Protocol: p})
		type hasRuntime interface{ Runtime() *runtime.Runtime }
		for i, r := range sys.Replicas {
			if got := r.(hasRuntime).Runtime().Workers() > 0; got != pooled {
				t.Errorf("%s replica %d: pooled verification = %v, want %v", p, i, got, pooled)
			}
		}
		sys.Close()
	}
}

// TestUDPLoopbackKillRestart kills one replica of a 4-replica (f=1)
// PBFT system running over real sockets, verifies the survivors keep
// committing, then restarts it and checks it rejoins and catches up.
func TestUDPLoopbackKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test")
	}
	// A small checkpoint interval gives the restarted replica frequent
	// state-fetch triggers while load keeps flowing.
	sys := Build(Options{Protocol: PBFT, Transport: "udp", CheckpointInterval: 8,
		ClientTimeout: 300 * time.Millisecond})
	defer sys.Close()
	cl := sys.NewClient(1)
	invoke := func(n int, phase string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Invoke([]byte(fmt.Sprintf("%s-%d", phase, i)), 10*time.Second); err != nil {
				t.Fatalf("%s op %d: %v", phase, i, err)
			}
		}
	}
	invoke(10, "warm")

	// Kill a non-primary replica: with f=1 the other three must keep
	// committing over the real sockets.
	const victim = 3
	if err := sys.Crash(victim); err != nil {
		t.Fatalf("crash replica %d: %v", victim, err)
	}
	before := sys.Committed()
	invoke(10, "degraded")
	waitCommitted(t, sys, before+10) // f=1 progress

	if err := sys.Restart(victim, false); err != nil {
		t.Fatalf("restart replica %d: %v", victim, err)
	}
	if !sys.Alive(victim) {
		t.Fatalf("replica %d not alive after restart", victim)
	}
	// The restarted replica must catch up to the fleet: it rejoined on a
	// fresh loopback port, so this also proves peers follow the address
	// rebind. Catch-up is checkpoint-driven, so keep load flowing while
	// waiting.
	target := sys.Committed() + 10
	deadline := time.Now().Add(30 * time.Second)
	for sys.ExecutedAt(victim) < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d executed %d, fleet at %d — never caught up",
				victim, sys.ExecutedAt(victim), sys.Committed())
		}
		invoke(1, "healed")
		time.Sleep(5 * time.Millisecond)
	}
}
