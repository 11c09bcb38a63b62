package neobft

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"neobft/internal/kvstore"
	"neobft/internal/replication"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// setCheckpointInterval shrinks every replica's checkpoint interval so tests
// cross several boundaries with a handful of operations.
func setCheckpointInterval(c *cluster, interval int) {
	for _, r := range c.replicas {
		r.Runtime().Call(func() { r.cfg.CheckpointInterval = interval })
	}
}

// TestFarFutureSyncVotesRejected: a Byzantine replica claiming a sync
// point far beyond anything the group appended must not plant per-slot
// state — neither checkpoint votes nor gap-agreement slots — or it could
// exhaust an honest replica's memory with state no checkpoint would ever
// garbage-collect.
func TestFarFutureSyncVotesRejected(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC})
	setCheckpointInterval(c, 8)
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	r := c.replicas[1]
	votes := r.CheckpointVotes()
	rejects := r.mSyncReject.Load()

	// A sync vote for slot 800: a valid interval multiple, but far beyond
	// high watermark + one interval. The horizon check fires before any
	// MAC verification or vote pooling.
	farVote := func(slot uint64) []byte {
		w := wire.NewWriter(192)
		w.U32(2)                       // claimed sender
		w.U64(slot)                    // checkpoint slot
		w.Bytes32([32]byte{1})         // log hash
		w.Bytes32([32]byte{2})         // state digest
		w.VarBytes([]byte("junk-tag")) // unchecked when rejected earlier
		w.U32(0)                       // no gap certificates
		return w.Bytes()
	}
	r.Runtime().Call(func() { r.onSync(farVote(800)) })

	if got := r.CheckpointVotes(); got != votes {
		t.Fatalf("far-future vote pooled checkpoint state: %d slots, want %d", got, votes)
	}
	if got := r.mSyncReject.Load(); got != rejects+1 {
		t.Fatalf("sync horizon rejects = %d, want %d", got, rejects+1)
	}

	// Gap-agreement bookkeeping is bounded by the same horizon.
	var inWindow bool
	r.Runtime().Call(func() { inWindow = r.gapSlotInWindow(800) })
	if inWindow {
		t.Fatal("far-future slot accepted into the gap-agreement window")
	}
	if got := r.GapSlots(); got != 0 {
		t.Fatalf("gap state allocated for a far-future slot: %d slots", got)
	}

	// Control: a vote within one interval of the high watermark passes the
	// horizon check (it dies at MAC verification instead, so it neither
	// pools state nor counts as a horizon reject).
	rejects = r.mSyncReject.Load() // the window probe above also counts one
	r.Runtime().Call(func() { r.onSync(farVote(8)) })
	if got := r.mSyncReject.Load(); got != rejects {
		t.Fatalf("in-horizon vote counted as horizon reject (total %d, want %d)", got, rejects)
	}
	if got := r.CheckpointVotes(); got != votes {
		t.Fatalf("forged in-horizon vote pooled state: %d slots", got)
	}
}

// TestPartitionedReplicaCatchesUpViaSnapshot: a replica partitioned for
// several sync intervals returns to find the slots it missed truncated
// everywhere. It must catch up through a snapshot state transfer — its
// queries for truncated slots are answered with the stable checkpoint,
// never with a replay from slot 1 — and converge to the group's KV
// state (byte-identical B-Tree snapshots on every replica).
func TestPartitionedReplicaCatchesUpViaSnapshot(t *testing.T) {
	stores := make([]*kvstore.Store, 4)
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, appFactory: func(i int) replication.App {
		stores[i] = kvstore.NewStore()
		return stores[i]
	}})
	setCheckpointInterval(c, 8)
	cl := c.client(0)
	const victim = 3 // a follower; node ID 4
	victimNode := transport.NodeID(victim + 1)
	c.net.BlockNode(victimNode, true)

	put := func(i int) {
		t.Helper()
		op := kvstore.EncodePut(fmt.Sprintf("key-%03d", i), []byte{byte(i)})
		if _, err := cl.Invoke(op, 5*time.Second); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	const partitioned = 40 // five sync intervals
	for i := 0; i < partitioned; i++ {
		put(i)
	}
	// The survivors must stabilize a checkpoint beyond the victim's log
	// and reclaim the memory below it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.replicas[0].LowWatermark() < 24 {
		time.Sleep(time.Millisecond)
	}
	if lw := c.replicas[0].LowWatermark(); lw < 24 {
		t.Fatalf("leader low watermark %d; survivors never truncated past the victim", lw)
	}

	c.net.BlockNode(victimNode, false)
	// Fresh traffic makes the victim's receiver notice the sequence gap
	// and start querying for slots that no longer exist anywhere.
	const total = partitioned + 5
	for i := partitioned; i < total; i++ {
		put(i)
	}

	// Convergence: every replica holds the identical key-value state.
	// (Committed() stays low on the victim by design: snapshot transfer
	// skips re-execution of truncated slots.)
	want := stores[0].Snapshot()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		want = stores[0].Snapshot()
		done := 0
		for _, st := range stores {
			if st.Len() == total && bytes.Equal(st.Snapshot(), want) {
				done++
			}
		}
		if done == c.n && stores[0].Len() == total {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, st := range stores {
		if st.Len() != total || !bytes.Equal(st.Snapshot(), want) {
			for j, r := range c.replicas {
				t.Logf("replica %d: committed=%d low=%d high=%d snaps=%d status=%v keys=%d",
					j, r.Committed(), r.LowWatermark(), r.LogLen(), r.SnapshotInstalls(), r.Status(), stores[j].Len())
			}
			t.Fatalf("replica %d diverged: %d keys, want %d identical to replica 0", i, st.Len(), total)
		}
	}
	if c.replicas[victim].SnapshotInstalls() == 0 {
		t.Fatal("victim caught up without a snapshot state transfer")
	}
	// The snapshot landed the victim past the truncated region: its log
	// base is a stable checkpoint the survivors also hold, so it never
	// requested slots below the leader's low watermark.
	if lw := c.replicas[victim].LowWatermark(); lw < 24 {
		t.Fatalf("victim log base %d is below the truncated region", lw)
	}
	// The group keeps running with the healed replica participating.
	put(total)
}
