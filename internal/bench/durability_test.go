package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"neobft/internal/chaos"
)

// The kill-recover chaos scenario against a durable Neo-HM fleet: a
// replica is SIGKILLed mid-load (no graceful persist), reboots from its
// data dir, and the SMR safety checker must still pass.
func TestChaosKillRecoverDurable(t *testing.T) {
	sched, err := chaos.Scenario("kill-recover", chaos.ScenarioConfig{
		Seed:     1,
		Horizon:  1500 * time.Millisecond,
		Replicas: 4,
		Settle:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := Build(Options{
		Protocol:           NeoHM,
		CheckpointInterval: 16,
		ClientTimeout:      200 * time.Millisecond,
		Chaos:              sched,
		DataDir:            t.TempDir(),
		PersistEvery:       10 * time.Millisecond,
	})
	defer sys.Close()
	res := Run(sys, Load{
		Clients:   4,
		Warmup:    200 * time.Millisecond,
		Duration:  1500 * time.Millisecond,
		OpTimeout: 5 * time.Second,
	})
	if res.Chaos == nil {
		t.Fatal("chaos armed but RunResult.Chaos is nil")
	}
	if !res.Chaos.Check.Ok() {
		t.Fatalf("safety violations after disk recovery:\n%v\napplied:\n%v",
			res.Chaos.Check.Violations, res.Chaos.Report.Applied)
	}
	rep := res.Chaos.Report
	if rep.Kills != 1 || rep.Restarts < 1 {
		t.Fatalf("kills=%d restarts=%d, want 1 and >=1\napplied:\n%v",
			rep.Kills, rep.Restarts, rep.Applied)
	}
	if res.Chaos.Check.AckedChecked == 0 {
		t.Fatal("no acknowledged operations were checked")
	}
	if !res.Config.Durable {
		t.Fatal("RunConfig.Durable = false for a data-dir-armed run")
	}
}

// Kill -9 a durable replica directly, then warm-restart it: the new
// incarnation must restore from the checkpoint the background persister
// wrote to disk — not from peers alone — and catch back up.
func TestKillRecoverRestoresFromDisk(t *testing.T) {
	sys := Build(Options{
		Protocol:           NeoHM,
		CheckpointInterval: 16,
		ClientTimeout:      200 * time.Millisecond,
		DataDir:            t.TempDir(),
		PersistEvery:       5 * time.Millisecond,
	})
	defer sys.Close()

	stopc := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cl := sys.NewClient(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := make([]byte, 32)
			for {
				select {
				case <-stopc:
					return
				default:
				}
				cl.Invoke(op, 2*time.Second)
			}
		}()
	}
	defer func() { close(stopc); wg.Wait() }()

	waitCommitted := func(target uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if sys.Committed() >= target {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s (committed=%d, want >=%d)", what, sys.Committed(), target)
	}
	// Run far enough that checkpoints stabilize, then long enough (the
	// load is faster than PersistEvery) that the persister has had many
	// chances to journal one.
	waitCommitted(96, "initial load")
	time.Sleep(50 * time.Millisecond)

	if err := sys.Kill(3); err != nil {
		t.Fatal(err)
	}
	if sys.Alive(3) {
		t.Fatal("replica 3 still alive after kill")
	}
	waitCommitted(sys.Committed()+32, "progress with replica down")

	if err := sys.Restart(3, false); err != nil {
		t.Fatal(err)
	}
	rec := sys.hosts[3].Store().Recovered()
	if rec.Checkpoint == nil {
		t.Fatal("warm restart after kill recovered no checkpoint from disk")
	}
	if rec.Slot == 0 {
		t.Fatal("recovered checkpoint has slot 0")
	}
	target := sys.Committed()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if sys.Alive(3) && sys.ExecutedAt(3) >= target {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica 3 did not catch up after disk recovery: executed=%d target=%d",
		sys.ExecutedAt(3), target)
}

// RunChaos with kill-recover and no DataDir must arm a throwaway data
// dir on its own (the scenario is meaningless in memory mode).
func TestRunChaosKillRecoverDefaultsDurable(t *testing.T) {
	var out bytes.Buffer
	ok, err := RunChaos(&out, ChaosConfig{
		Protocol: PBFT,
		Scenario: "kill-recover",
		Seed:     3,
		Short:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("kill-recover run unsafe:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "durable state under") {
		t.Fatalf("run did not arm durable state:\n%s", out.String())
	}
}
