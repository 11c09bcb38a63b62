package protocol

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/seqlog"
	"neobft/internal/simnet"
	"neobft/internal/transport"
)

// fakeSaver is a replica whose persisted state the test sets directly.
type fakeSaver struct {
	mu    sync.Mutex
	saved seqlog.Saved
	saves int
}

func (f *fakeSaver) Save() seqlog.Saved {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	return f.saved
}

func (f *fakeSaver) Persist() []byte  { return f.Save().Blob() }
func (f *fakeSaver) Executed() uint64 { return 0 }
func (f *fakeSaver) Close()           {}

// set replaces the saved state and waits until the persister has looked
// at the new one and then once more.
func (f *fakeSaver) set(t *testing.T, sv seqlog.Saved) {
	t.Helper()
	f.mu.Lock()
	f.saved = sv
	from := f.saves
	f.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		n := f.saves - from
		f.mu.Unlock()
		// The first Save after the swap may have started before it.
		if n >= 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the persister stopped polling")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// rawState is a checkpoint state whose snapshot is its bytes.
type rawState []byte

func (s rawState) Digest() [32]byte           { return sha256.Sum256(s) }
func (s rawState) Size() int                  { return len(s) }
func (s rawState) AppendTo(buf []byte) []byte { return append(buf, s...) }

// AppendDelta reports false: the persister writes every rawState whole.
func (s rawState) AppendDelta(buf []byte, _ replication.Frozen) ([]byte, bool) { return buf, false }

// TestPersisterDedupesBySlotAndPrefix: the persister journals a
// checkpoint record when the stable checkpoint's slot or the protocol's
// prefix changes, and only then, and a reboot restores the last one.
func TestPersisterDedupesBySlotAndPrefix(t *testing.T) {
	rep := &fakeSaver{}
	var restored []byte
	spec := &Spec{Name: "fake", fleet: func(int) int { return 1 }, replica: func(h *Host, restore []byte) Replica {
		restored = restore
		return rep
	}}
	fab := simnet.Fabric{Network: simnet.New(simnet.Options{})}
	defer fab.Close()
	reg := metrics.NewRegistry()
	h := NewHost(HostConfig{
		Cluster:      spec.Cluster(1, Params{}),
		Fabric:       fab,
		Metrics:      reg,
		App:          func() replication.App { return replication.EchoApp{} },
		DataDir:      t.TempDir(),
		PersistEvery: time.Millisecond,
	})
	if err := h.Boot(false); err != nil {
		t.Fatal(err)
	}
	checkpoint := func(slot uint64) *seqlog.Checkpoint {
		return &seqlog.Checkpoint{Slot: slot, Cert: &seqlog.Cert{Slot: slot}, State: rawState(fmt.Sprint("state@", slot))}
	}
	at8 := checkpoint(8)
	steps := []struct {
		name    string
		saved   seqlog.Saved
		records uint64
	}{
		{"no stable checkpoint", seqlog.Saved{Prefix: []byte("view 0")}, 0},
		{"first checkpoint", seqlog.Saved{Prefix: []byte("view 0"), Stable: at8}, 1},
		{"same slot and prefix", seqlog.Saved{Prefix: []byte("view 0"), Stable: checkpoint(8)}, 1},
		{"view change", seqlog.Saved{Prefix: []byte("view 1"), Stable: at8}, 2},
		{"new checkpoint", seqlog.Saved{Prefix: []byte("view 1"), Stable: checkpoint(16)}, 3},
		{"unchanged", seqlog.Saved{Prefix: []byte("view 1"), Stable: checkpoint(16)}, 3},
	}
	records := reg.Counter("store_wal_records_total")
	for _, step := range steps {
		rep.set(t, step.saved)
		if got := records.Load(); got != step.records {
			t.Fatalf("%s: %d checkpoint records, want %d", step.name, got, step.records)
		}
	}
	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(false); err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if want := steps[len(steps)-1].saved.Blob(); !bytes.Equal(restored, want) {
		t.Fatalf("rebooted from %q, want %q", restored, want)
	}
}

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
	// returning once fsynced, so by then the first is on disk. Five ops
	// at a time against an interval of 8 keep the executed count off the
	// checkpoint slots, so a record carrying it would show below.
	var first, zero persistKey
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("persister never journaled a checkpoint")
		}
		invoke(5)
		victim.mu.Lock()
		captured := victim.persisted
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
	// Kill waits out a persist in flight, so the last key captured is
	// the last record on disk.
	victim.mu.Lock()
	last := victim.persisted
	victim.mu.Unlock()
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
	// Records carry the stable checkpoint's slot, not the executed count.
	if rec.Slot != last.slot {
		t.Fatalf("recovered slot %d, last persisted stable slot %d", rec.Slot, last.slot)
	}
	if got := victim.Recovered(); got.Slot != rec.Slot || len(got.Deltas) != len(rec.Deltas) {
		t.Fatalf("host applied %d deltas up to slot %d, store holds %d up to %d",
			len(got.Deltas), got.Slot, len(rec.Deltas), rec.Slot)
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
