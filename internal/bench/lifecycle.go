package bench

import (
	"fmt"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/protocol"
)

// host returns replica i's node, or an error for an index out of range.
func (sys *System) host(i int) (*protocol.Host, error) {
	if i < 0 || i >= len(sys.hosts) {
		return nil, fmt.Errorf("bench: no replica %d", i)
	}
	return sys.hosts[i], nil
}

// installLifecycle points the system's crash–restart surface and the
// accessors that must stay correct across replica replacement at the
// replica hosts.
func (sys *System) installLifecycle() {
	sys.Crash = func(i int) error {
		h, err := sys.host(i)
		if err != nil {
			return err
		}
		return h.Stop()
	}
	sys.Kill = func(i int) error {
		h, err := sys.host(i)
		if err != nil {
			return err
		}
		return h.Kill()
	}
	sys.Restart = func(i int, cold bool) error {
		h, err := sys.host(i)
		if err != nil {
			return err
		}
		if err := h.Boot(cold); err != nil {
			return err
		}
		sys.Replicas[i] = h.Replica()
		return nil
	}
	sys.Alive = func(i int) bool {
		h, err := sys.host(i)
		return err == nil && h.Alive()
	}
	sys.SkewClock = func(i int, factor float64) {
		if h, err := sys.host(i); err == nil {
			h.SkewClock(factor)
		}
	}
	sys.ExecutedAt = func(i int) uint64 {
		h, err := sys.host(i)
		if err != nil {
			return 0
		}
		return h.Progress()
	}
	sys.Committed = sys.hosts[0].Executed
	// The busy time of the busiest replica is what bounds throughput when
	// every replica has its own machine (the paper's deployment), so
	// ops ÷ max-busy-time projects the bottleneck throughput from a
	// co-located run.
	sys.PerReplicaBusy = func() []time.Duration {
		out := make([]time.Duration, len(sys.hosts))
		for i, h := range sys.hosts {
			out[i] = h.Busy()
		}
		return out
	}
	sys.AuthOps = func() uint64 {
		var sum uint64
		for _, h := range sys.hosts {
			sum += h.AuthOps()
		}
		return sum
	}
}

// fleet adapts the system to the chaos executor's fault surface.
func (sys *System) fleet() chaos.Fleet {
	return chaos.Fleet{
		Net:            sys.Net,
		Replicas:       sys.NumReplicas,
		ReplicaID:      sys.ReplicaID,
		Crash:          sys.Crash,
		Kill:           sys.Kill,
		Restart:        sys.Restart,
		Alive:          sys.Alive,
		SkewClock:      sys.SkewClock,
		CrashSequencer: sys.CrashSequencer,
		Executed:       sys.ExecutedAt,
		Tracer:         sys.chaosTr,
	}
}
