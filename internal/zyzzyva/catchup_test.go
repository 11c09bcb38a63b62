package zyzzyva

import (
	"testing"
	"time"
)

// TestLaggingReplicaSnapshotCatchUp: a backup partitioned past the
// group's watermark window cannot replay the batches it missed — they
// are truncated everywhere. The primary ordering beyond its window, or
// f+1 checkpoint votes beyond it, make it fetch and install the stable
// snapshot, landing it past the truncated region.
func TestLaggingReplicaSnapshotCatchUp(t *testing.T) {
	c := newCluster(t, 4, -1)
	const interval = 8
	for _, r := range c.replicas {
		r.Runtime().Call(func() { r.cfg.CheckpointInterval = interval })
	}
	cl := c.client(0, 20*time.Millisecond)
	const victim = 3
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
