package protocol

import (
	"fmt"
	"testing"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/simnet"
	"neobft/internal/transport"
)

// TestHostKillRebootsFromPersistedCheckpoint is the durability contract
// of the one replica host that internal/bench and cmd/neokv both boot:
// a host with a data dir that is killed — no graceful final persist —
// reboots from the last checkpoint its background persister journaled,
// not from peers alone.
func TestHostKillRebootsFromPersistedCheckpoint(t *testing.T) {
	spec, err := Lookup("pbft")
	if err != nil {
		t.Fatal(err)
	}
	cl := spec.Cluster(0, Params{CheckpointInterval: 8})
	fab := simnet.Fabric{Network: simnet.New(simnet.Options{Seed: 1})}
	defer fab.Close()
	dataDir := t.TempDir()
	hosts := make([]*Host, cl.N)
	for i := range hosts {
		hosts[i] = NewHost(HostConfig{
			Cluster:      cl,
			Index:        i,
			Fabric:       fab,
			Metrics:      metrics.NewRegistry(),
			App:          func() replication.App { return replication.EchoApp{} },
			DataDir:      dataDir,
			PersistEvery: time.Millisecond,
		})
		if err := hosts[i].Boot(false); err != nil {
			t.Fatal(err)
		}
		defer hosts[i].Kill()
		if rec := hosts[i].Store().Recovered(); rec.Checkpoint != nil {
			t.Fatalf("replica %d recovered a checkpoint from a fresh data dir", i)
		}
	}
	conn, err := fab.Join(transport.NodeID(100))
	if err != nil {
		t.Fatal(err)
	}
	client, err := cl.NewClient(conn, replication.Tuning{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := client.Invoke([]byte(fmt.Sprintf("op-%d", i)), 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := hosts[cl.N-1]
	// Commit until the victim's persister has captured two different
	// checkpoints: it appends them one after the other, each append
	// returning once fsynced, so by then the first is on disk.
	var first, zero [32]byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("persister never journaled a checkpoint")
		}
		invoke(8)
		victim.mu.Lock()
		captured := victim.ckptHash
		victim.mu.Unlock()
		if first == zero {
			first = captured
		} else if captured != first {
			break
		}
	}
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	if victim.Alive() || victim.Progress() != 0 {
		t.Fatalf("after Kill: alive=%v progress=%d", victim.Alive(), victim.Progress())
	}
	if err := victim.Kill(); err == nil {
		t.Fatal("second Kill of a down host succeeded")
	}
	invoke(8) // the fleet moves on without it

	if err := victim.Boot(false); err != nil {
		t.Fatal(err)
	}
	rec := victim.Store().Recovered()
	if rec.Checkpoint == nil || rec.Slot == 0 {
		t.Fatalf("warm boot after kill recovered checkpoint=%v slot=%d from disk", rec.Checkpoint != nil, rec.Slot)
	}
	// The checkpoint came from disk: the new incarnation's log window
	// starts at it before any peer traffic could have reached the replica
	// (the only client is idle).
	low := func() uint64 { return victim.Replica().(interface{ LowWatermark() uint64 }).LowWatermark() }
	if low() == 0 {
		t.Fatal("rebooted replica did not restore the recovered checkpoint")
	}
	// It rejoins: operations committed from now on execute there too.
	deadline = time.Now().Add(10 * time.Second)
	for victim.Progress() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rebooted replica executed nothing")
		}
		invoke(8)
	}

	// A cold boot wipes the directory first.
	if err := victim.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Boot(true); err != nil {
		t.Fatal(err)
	}
	if rec := victim.Store().Recovered(); rec.Checkpoint != nil || low() != 0 {
		t.Fatalf("cold boot recovered checkpoint=%v, low watermark %d", rec.Checkpoint != nil, low())
	}
}
