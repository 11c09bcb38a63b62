package zyzzyva

import (
	"testing"
	"time"
)

// TestCheckpointBoundsLogWindow: speculative execution still checkpoints
// — every interval the replicas exchange history-digest votes and
// truncate the ordered-request log, keeping the window bounded even on
// the all-fast-path run.
func TestCheckpointBoundsLogWindow(t *testing.T) {
	c := newCluster(t, 4, -1)
	const interval = 8
	for _, r := range c.replicas {
		r.Runtime().Call(func() { r.cfg.CheckpointInterval = interval })
	}
	cl := c.client(0, 50*time.Millisecond)
	const ops = 30
	for i := 0; i < ops; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		advanced := 0
		for _, r := range c.replicas {
			if r.LowWatermark() >= 16 {
				advanced++
			}
		}
		if advanced == c.n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range c.replicas {
		low, high := r.LowWatermark(), r.HighWatermark()
		if low < 16 {
			t.Errorf("replica %d: low watermark %d after %d ops; checkpoints never stabilized", i, low, ops)
		}
		if high-low > 2*interval {
			t.Errorf("replica %d: window [%d,%d] wider than two intervals", i, low, high)
		}
	}
}
