package pbft

import (
	"testing"
	"time"
)

// setCheckpointInterval shrinks every replica's checkpoint interval so
// tests cross several boundaries with a handful of operations.
func setCheckpointInterval(c *cluster, interval int) {
	for _, r := range c.replicas {
		r.Runtime().Call(func() { r.cfg.CheckpointInterval = interval })
	}
}

// TestCheckpointBoundsLogWindow: under continuous load, stable
// checkpoints advance the low watermark and the retained log window
// never exceeds two checkpoint intervals.
func TestCheckpointBoundsLogWindow(t *testing.T) {
	c := newCluster(t, 4, false)
	const interval = 8
	setCheckpointInterval(c, interval)
	cl := c.client(t, 0)
	for i := 1; i <= 30; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// The 24-checkpoint needs 2f+1 votes; give stragglers a moment.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.replicas {
			if r.LowWatermark() >= 16 {
				done++
			}
		}
		if done == c.n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range c.replicas {
		low, high := r.LowWatermark(), r.HighWatermark()
		if low < 16 {
			t.Fatalf("replica %d low watermark %d; checkpoints never truncated", i, low)
		}
		if high-low > 2*interval {
			t.Fatalf("replica %d window [%d,%d] exceeds two intervals", i, low, high)
		}
	}
}

// TestLaggingReplicaSnapshotCatchUp: a replica partitioned past the
// group's watermark window cannot replay the slots it missed — they are
// truncated everywhere. Checkpoint votes beyond its horizon reveal the
// gap (f+1 distinct claimants), and it catches up by installing the
// stable snapshot, converging to the same application state.
func TestLaggingReplicaSnapshotCatchUp(t *testing.T) {
	c := newCluster(t, 4, false)
	const interval = 8
	setCheckpointInterval(c, interval)
	cl := c.client(t, 0)
	const victim = 3 // a backup; node ID 4
	c.net.BlockNode(c.members[victim], true)

	const partitioned = 40 // five checkpoint intervals
	for i := 0; i < partitioned; i++ {
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
	// Keep the load going: each interval crossing broadcasts checkpoint
	// votes, which is what tells the victim it is behind the window.
	const extra = 24
	for i := 0; i < extra; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatalf("op %d after heal: %v", i, err)
		}
	}

	const total = partitioned + extra
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, app := range c.apps {
			if app.value() == total {
				done++
			}
		}
		if done == c.n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, app := range c.apps {
		if app.value() != total {
			for j, r := range c.replicas {
				t.Logf("replica %d: exec=%d low=%d high=%d snaps=%d view=%d",
					j, r.Executed(), r.LowWatermark(), r.HighWatermark(), r.SnapshotInstalls(), r.View())
			}
			t.Fatalf("replica %d state = %d, want %d", i, app.value(), total)
		}
	}
	if c.replicas[victim].SnapshotInstalls() == 0 {
		t.Fatal("victim caught up without a snapshot state transfer")
	}
	// The victim joined the window instead of replaying truncated slots.
	if lw := c.replicas[victim].LowWatermark(); lw < 24 {
		t.Fatalf("victim log base %d is below the truncated region", lw)
	}
}
