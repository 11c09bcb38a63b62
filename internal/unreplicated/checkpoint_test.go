package unreplicated

import (
	"testing"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/simnet"
)

// TestCheckpointBoundsLogWindow: with a single server every checkpoint
// is trivially stable, so the log truncates on each interval boundary
// and never holds more than one interval of digests.
func TestCheckpointBoundsLogWindow(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	const interval = 4
	srv := New(Config{replica.Config{
		Conn:               net.Join(1),
		App:                replication.EchoApp{},
		ClientAuth:         auth.NewReplicaSide([]byte("m"), 0),
		CheckpointInterval: interval,
	}})
	t.Cleanup(srv.Close)
	cl := NewClient(net.Join(100), 1, []byte("m"), replication.Tuning{Timeout: 50 * time.Millisecond})

	const ops = 10
	for i := 0; i < ops; i++ {
		if _, err := cl.Invoke([]byte{byte(i)}, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	low, high := srv.LowWatermark(), srv.HighWatermark()
	if low != 8 {
		t.Errorf("low watermark = %d after %d ops at interval %d, want 8", low, ops, interval)
	}
	if high-low > interval {
		t.Errorf("window [%d,%d] wider than one interval", low, high)
	}
}
