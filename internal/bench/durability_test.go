package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/kvstore"
	"neobft/internal/replication"
	"neobft/internal/seqlog"
	"neobft/internal/wire"
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

// Kill -9 a durable Neo-HM replica running the kv store after its
// persister has appended deltas: the warm boot folds the delta chain
// onto the last full record and lands on the last persisted stable
// checkpoint, whose state equals a live peer's at that slot.
func TestKillRecoverThroughDeltas(t *testing.T) {
	var mu sync.Mutex
	stores := make([]*kvstore.Store, 4)
	sys := Build(Options{
		Protocol:           NeoHM,
		CheckpointInterval: 16,
		ClientTimeout:      200 * time.Millisecond,
		DataDir:            t.TempDir(),
		PersistEvery:       5 * time.Millisecond,
		AppFactory: func(i int) replication.App {
			s := kvstore.NewStore()
			for k := 0; k < 2000; k++ {
				s.Load(fmt.Sprintf("user%010d", k), bytes.Repeat([]byte("v"), 128))
			}
			mu.Lock()
			stores[i] = s
			mu.Unlock()
			return s
		},
	})
	defer sys.Close()

	// Updates until well past the first persisted checkpoint: the ones
	// after it persist as deltas, a full only when the deltas add up to
	// its size (about 300 KB here).
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl := sys.NewClient(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("user%010d", (c*7919+i*104729)%2500)
				if _, err := cl.Invoke(kvstore.EncodePut(key, []byte(fmt.Sprint(c, i))), 2*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	saved := func(i int) seqlog.Saved {
		return sys.hosts[i].Replica().(interface{ Save() seqlog.Saved }).Save()
	}
	// Quiesce: every replica settles on one stable checkpoint and the
	// victim's persister gets to it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, b := saved(0).Stable, saved(3).Stable
		if a != nil && b != nil && a.Slot == b.Slot && a.Slot > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not settle on one stable checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	peer := saved(0).Stable
	if err := sys.Kill(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.Restart(3, false); err != nil {
		t.Fatal(err)
	}
	rec := sys.hosts[3].Recovered()
	if len(rec.Deltas) < 2 {
		t.Fatalf("recovered %d delta records, want at least 2", len(rec.Deltas))
	}
	if rec.Slot != peer.Slot {
		t.Fatalf("recovered slot %d, last stable slot %d", rec.Slot, peer.Slot)
	}
	got := saved(3).Stable
	if got == nil || got.Slot != peer.Slot || got.Digest != peer.Digest {
		t.Fatalf("restored stable checkpoint %+v, peer's at slot %d digest %x", got, peer.Slot, peer.Digest)
	}
	// The restored store holds exactly the peer's checkpointed records.
	bundle := wire.NewReader(peer.State.AppendTo(nil))
	mu.Lock()
	restored := stores[3].Snapshot()
	mu.Unlock()
	if !bytes.Equal(restored, bundle.VarBytes()) {
		t.Fatal("restored kv store differs from the peer's at the stable slot")
	}
}
