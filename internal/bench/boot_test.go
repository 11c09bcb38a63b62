package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/protocol"
)

// TestOneBootPathEveryProtocol drives every system through the same
// node lifecycle — first boot, graceful crash, warm restart, kill, cold
// restart — which all go through the one replica factory of its spec.
func TestOneBootPathEveryProtocol(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			spec, err := protocol.Lookup(string(p))
			if err != nil {
				t.Fatal(err)
			}
			sys := Build(Options{Protocol: p, CheckpointInterval: 32, ClientTimeout: 200 * time.Millisecond})
			defer sys.Close()
			if sys.NumReplicas != FleetSize(p, 0) || len(sys.Replicas) != sys.NumReplicas {
				t.Fatalf("built %d replicas (%d handles), FleetSize says %d",
					sys.NumReplicas, len(sys.Replicas), FleetSize(p, 0))
			}
			_, changesViews := sys.Replicas[0].(interface{ ViewChanges() uint64 })
			if changesViews != spec.ViewChange {
				t.Errorf("spec.ViewChange = %v, but the replica's ViewChanges() presence says %v",
					spec.ViewChange, changesViews)
			}
			if (sys.CrashSequencer != nil) != spec.Sequencer() {
				t.Errorf("spec.Sequencer() = %v, CrashSequencer installed = %v",
					spec.Sequencer(), sys.CrashSequencer != nil)
			}

			// Four clients keep load on the system for the whole test, the
			// way the chaos gauntlet does: a rebooted baseline replica only
			// learns it is behind from the traffic of later operations.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				cl := sys.NewClient(c)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						cl.Invoke([]byte(fmt.Sprintf("op-%d", i)), 2*time.Second)
					}
				}()
			}
			defer func() { close(stop); wg.Wait() }()

			last := sys.NumReplicas - 1
			silent := p == ZyzzyvaF
			// What a reboot can be held to differs by family, as it did
			// before the boot paths were merged. NeoBFT reports slots, so
			// the replica resumes at its restored checkpoint and must reach
			// the fleet. The baselines report the operations executed by
			// the incarnation, and how soon a rebooted replica executes
			// again is up to their state transfer (a PBFT one can sit at 0
			// for this test's whole patience), so only the fleet around it
			// is required to keep committing. With MinBFT and HotStuff not
			// even that holds: neither fetches the suffix a rejoining
			// replica missed, the replica stays at its checkpoint and the
			// fleet stops committing (the chaos gauntlet reports "never
			// caught up" for both). Those two are checked for everything
			// but progress after a reboot.
			resumes := spec.Sequencer() || sys.NumReplicas == 1
			recovers := p != MinBFT && p != HotStuff
			// reach waits until replica i has executed want operations,
			// failing if any replica that is never restarted goes backwards.
			floor := make([]uint64, last)
			reach := func(when string, i int, want uint64) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for sys.ExecutedAt(i) < want {
					if time.Now().After(deadline) {
						t.Fatalf("%s: replica %d at %d, want >= %d", when, i, sys.ExecutedAt(i), want)
					}
					for j := range floor {
						got := sys.ExecutedAt(j)
						if got < floor[j] {
							t.Fatalf("%s: replica %d ExecutedAt went %d -> %d", when, j, floor[j], got)
						}
						floor[j] = got
					}
					time.Sleep(time.Millisecond)
				}
			}
			// committing waits for the fleet to commit again after a
			// reboot and, where progress is in slots, for the rebooted
			// replica to get past where the fleet was.
			committing := func(when string) {
				t.Helper()
				if !recovers {
					return
				}
				target := sys.ExecutedAt(0) + 16
				reach(when, 0, target)
				if resumes {
					reach(when, last, target)
				}
			}

			reach("first boot", 0, 96)
			if !silent {
				reach("first boot", last, 96)
			}
			reg := sys.Metrics[last]
			before := sys.ExecutedAt(last)

			if err := sys.Crash(last); err != nil {
				t.Fatal(err)
			}
			if sys.Alive(last) || sys.ExecutedAt(last) != 0 {
				t.Fatalf("after Crash: alive=%v executed=%d", sys.Alive(last), sys.ExecutedAt(last))
			}
			if err := sys.Crash(last); err == nil {
				t.Fatal("second Crash of a down replica succeeded")
			}
			if err := sys.Restart(last, false); err != nil {
				t.Fatal(err)
			}
			if err := sys.Restart(last, false); err == nil {
				t.Fatal("Restart of a running replica succeeded")
			}
			if resumes {
				// Warm: even the one-node fleet resumes from its blob.
				reach("warm restart", last, before)
			}
			committing("warm restart")

			if err := sys.Kill(last); err != nil {
				t.Fatal(err)
			}
			if err := sys.Restart(last, true); err != nil {
				t.Fatal(err)
			}
			committing("cold restart")
			if silent {
				// The restarted incarnation must come from the same spec
				// row: Zyzzyva-F's last replica stays mute.
				if got := sys.ExecutedAt(last); got != 0 {
					t.Errorf("Zyzzyva-F's silent replica executed %d ops after its restart", got)
				}
			}
			for i := 0; i < sys.NumReplicas; i++ {
				if !sys.Alive(i) {
					t.Errorf("replica %d not alive at the end", i)
				}
			}

			if sys.Metrics[last] != reg {
				t.Error("sys.Metrics entry replaced across incarnations")
			}
			if got := sys.Replicas[last].(interface{ Metrics() *metrics.Registry }).Metrics(); got != reg {
				t.Error("restarted replica does not report into the registry of its first incarnation")
			}
		})
	}
}

// TestSpecTableComplete checks that every name the harness and the CI
// matrices use resolves against the spec table.
func TestSpecTableComplete(t *testing.T) {
	for _, p := range AllProtocols {
		got, err := ChaosProtocol(string(p))
		if err != nil || got != p {
			t.Errorf("ChaosProtocol(%q) = %q, %v", p, got, err)
		}
		if FleetSize(p, 0) < 1 {
			t.Errorf("FleetSize(%s, 0) = %d", p, FleetSize(p, 0))
		}
	}
	aliases := map[string]Protocol{
		"neobft": NeoHM, "neo": NeoHM, "neohm": NeoHM, "neo-hm": NeoHM,
		"neopk": NeoPK, "neo-pk": NeoPK, "neobn": NeoBN, "neo-bn": NeoBN,
		"pbft": PBFT, "zyzzyva": Zyzzyva, "zyzzyva-f": ZyzzyvaF, "ZYZZYVA-F": ZyzzyvaF,
		"hotstuff": HotStuff, "minbft": MinBFT, "unreplicated": Unreplicated,
	}
	for name, want := range aliases {
		if got, err := ChaosProtocol(name); err != nil || got != want {
			t.Errorf("ChaosProtocol(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, tc := range []struct {
		p    Protocol
		n    int
		want int
	}{
		{Unreplicated, 0, 1}, {Unreplicated, 7, 1},
		{NeoHM, 0, 4}, {PBFT, 7, 7}, {HotStuff, 3, 3},
		{MinBFT, 0, 3}, {MinBFT, 7, 5}, {MinBFT, 2, 3},
	} {
		if got := FleetSize(tc.p, tc.n); got != tc.want {
			t.Errorf("FleetSize(%s, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
	_, err := ChaosProtocol("raft")
	if err == nil {
		t.Fatal("unknown protocol resolved")
	}
	for _, p := range AllProtocols {
		if !strings.Contains(err.Error(), string(p)) {
			t.Errorf("unknown-protocol error %q does not list %s", err, p)
		}
	}
}
