package minbft

import (
	"testing"
	"time"
)

// TestLaggingReplicaSnapshotCatchUp: a backup partitioned past the
// group's watermark window is wedged by the sequential-counter check —
// every prepare it sees skips the counters it missed. f+1 checkpoint
// votes beyond its window tell it the group is ahead, and it installs
// the stable snapshot instead of replaying truncated slots. (Whether it
// then commits again depends on the primary not having moved past the
// checkpoint: a rejoining replica fetches no suffix, ROADMAP item 8.)
func TestLaggingReplicaSnapshotCatchUp(t *testing.T) {
	// f = 2: five replicas, so the three backups left when one is cut off
	// still make the f+1 commits execution needs.
	c := newCluster(t, 2)
	const interval = 8
	for _, r := range c.replicas {
		r.Runtime().Call(func() { r.cfg.CheckpointInterval = interval })
	}
	cl := c.client(0)
	const victim = 4
	c.net.BlockNode(c.members[victim], true)
	for i := 0; i < 40; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatalf("op %d during partition: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.replicas[0].LowWatermark() < 24 {
		time.Sleep(time.Millisecond)
	}
	if lw := c.replicas[0].LowWatermark(); lw < 24 {
		t.Fatalf("primary low watermark %d; survivors never truncated past the victim", lw)
	}

	c.net.BlockNode(c.members[victim], false)
	v := c.replicas[victim]
	deadline = time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline) && (v.SnapshotInstalls() == 0 || v.LowWatermark() < 24); i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatalf("op %d after heal: %v", i, err)
		}
	}
	if v.SnapshotInstalls() == 0 || v.LowWatermark() < 24 {
		t.Fatalf("victim never caught up: %d snapshot installs, low watermark %d", v.SnapshotInstalls(), v.LowWatermark())
	}
}
