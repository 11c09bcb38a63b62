package bench

import (
	"testing"
	"time"
)

// TestDrainFailuresCounted kills every replica shortly before the
// measured window ends. The operations then in flight (and those started
// after the kill) time out only after the window has closed, while the
// clients drain; they started inside the window, so they must still be
// counted in Errors.
func TestDrainFailuresCounted(t *testing.T) {
	const (
		warmup   = 100 * time.Millisecond
		duration = 400 * time.Millisecond
		// killLead is how long before the window ends the fleet dies; the
		// timeout is longer, so every failure lands in the drain.
		killLead  = 100 * time.Millisecond
		opTimeout = 300 * time.Millisecond
	)
	for _, tc := range []struct {
		name string
		run  func(sys *System) RunResult
	}{
		{"closed", func(sys *System) RunResult {
			return Run(sys, Load{Clients: 2, Warmup: warmup, Duration: duration, OpTimeout: opTimeout})
		}},
		{"open", func(sys *System) RunResult {
			return RunOpen(sys, OpenLoad{Rate: 500, Clients: 2, Warmup: warmup, Duration: duration, OpTimeout: opTimeout})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := Build(Options{Protocol: PBFT, ClientWindow: 2})
			defer sys.Close()
			killed := time.AfterFunc(warmup+duration-killLead, func() {
				for i := 0; i < sys.NumReplicas; i++ {
					if err := sys.Kill(i); err != nil {
						t.Errorf("kill replica %d: %v", i, err)
					}
				}
			})
			defer killed.Stop()
			res := tc.run(sys)
			if len(res.Latencies) == 0 {
				t.Fatal("no operation completed before the kill")
			}
			if res.Errors == 0 {
				t.Fatalf("Errors = 0: operations started in the window and failed during the drain were dropped (%d ok)", len(res.Latencies))
			}
			t.Logf("%d ok, %d failed", len(res.Latencies), res.Errors)
		})
	}
}
