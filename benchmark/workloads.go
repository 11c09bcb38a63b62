package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"neobft/internal/bench"
	"neobft/internal/chaos"
	"neobft/internal/kvstore"
	"neobft/internal/replication"
	"neobft/internal/simnet"
	"neobft/internal/ycsb"
)

const (
	// clientWindow is each connection's pipeline depth. Load comes from
	// nproc connections of this depth, never more (ISSUE 11 sizing).
	clientWindow = 8
	// openRate is the fixed sub-saturation arrival rate of the open loop.
	openRate = 8000
	// opTimeout bounds one operation; the clients retransmit until then.
	opTimeout = 10 * time.Second
	// crashClientTimeout is the crash workload's client retransmission
	// interval. Service resumes with the first retransmission after the
	// epoch change, and retransmissions fall at 1×, 3×, 7×, 15× this value.
	// Replicas install the new epoch about 208 ms after the first one, so
	// 100 ms (ISSUE 11, and bench.Failover) puts the second at 300 ms, a few
	// ms short of it: the outage then flips between 310, 700 and 1500 ms
	// from run to run. 150 ms puts it at 450 ms, 90 ms clear.
	crashClientTimeout = 150 * time.Millisecond
)

// workload is one named set of inputs and the system it runs against.
type workload struct {
	name, why string
	protocol  bench.Protocol
	udp       bool // loopback UDP sockets instead of simnet
	ycsb      bool // durable kvstore + YCSB-A instead of echo
	open      bool // Poisson arrivals at openRate instead of a closed loop
	seqCrash  bool // crash the sequencer halfway through the window
}

// The `why` strings are BENCHMARK.json's; a test keeps the two in step.
var workloads = []workload{
	{name: "neohm_udp_echo", protocol: bench.NeoHM, udp: true,
		why: "Headline path on real sockets: udpnet, runtime, wire, HalfSipHash auth, sequencer and aom do the work; app, store and secp256k1 do none."},
	{name: "unrep_udp_echo", protocol: bench.Unreplicated, udp: true,
		why: "Single-node ceiling: only transport, runtime and the replication client run, so a consensus-only change must not move it."},
	{name: "pbft_udp_echo", protocol: bench.PBFT, udp: true,
		why: "Same fabric and runtime under leader batching, seqlog and all-to-all MAC vectors; sequencer and aom are bypassed."},
	{name: "neopk_sim_echo", protocol: bench.NeoPK,
		why: "Every packet signed: secp256k1 sign/verify and batch verification dominate while transport cost is near zero."},
	{name: "neohm_sim_ycsb_durable", protocol: bench.NeoHM, ycsb: true,
		why: "Only workload where kvstore, ycsb, the WAL with group commit, snapshots and checkpointing work; reads run beside updates."},
	{name: "neohm_sim_seqfail", protocol: bench.NeoHM, open: true, seqCrash: true,
		why: "Open loop at a fixed rate with the sequencer crashed mid-window: view change, configsvc epoch change and aom epoch install."},
}

// shape is the workload's connection count and per-connection pipeline
// depth on a box with nproc cores: nproc connections of clientWindow, so
// nproc×clientWindow operations are in flight at most. The crash workload
// spreads the same number over single-operation connections, because the
// replicas' client table keeps only each client's highest request id: a
// pipelined client's older request that must be retransmitted across the
// epoch change is ignored as stale and hangs until its deadline.
func (w workload) shape(nproc int) (conns, window int) {
	if w.seqCrash {
		return nproc * clientWindow, 1
	}
	return nproc, clientWindow
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is one built workload: the running system, its connections and
// what the correctness checks need.
type system struct {
	sys     *bench.System
	clients []bench.Invoker
	sources []opSource
	stores  []*kvstore.Store  // per-replica state machines (ycsb only)
	acks    chaos.AckRecorder // acknowledged operations (seqCrash only)
	dataDir string
}

// setup builds the workload's system through bench.Build, preloads it and
// opens conns connections — everything needed before the first operation
// can be sent. window is each connection's pipeline depth; faults arms
// the workload's crash schedule (the traced closed-loop passes run
// without it).
func setup(w workload, seed int64, conns, window int, traced, faults bool) (*system, error) {
	s := &system{}
	o := bench.Options{
		Protocol:     w.protocol,
		ClientWindow: window,
		Net:          simnet.Options{Seed: seed},
	}
	if w.udp {
		o.Transport = "udp"
	}
	if traced {
		o.TraceRate = 1
		o.TraceBuf = 1 << 17
	}
	if w.ycsb {
		dir, err := os.MkdirTemp(tmpRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
		o.DataDir = dir
		wl := ycsbWorkload()
		s.stores = make([]*kvstore.Store, bench.FleetSize(w.protocol, 0))
		o.AppFactory = func(i int) replication.App {
			s.stores[i] = kvstore.NewStore()
			ycsb.Load(s.stores[i], wl)
			return s.stores[i]
		}
	}
	if w.seqCrash {
		o.ClientTimeout = crashClientTimeout
		if faults {
			// Arms the recording apps chaos.Check reads; runPass starts
			// the crash timeline itself, to time it from outside.
			o.Chaos = &chaos.Schedule{Name: w.name, Seed: seed}
		}
	}
	s.sys = bench.Build(o)
	for c := 0; c < conns; c++ {
		s.clients = append(s.clients, s.sys.NewClient(c))
		switch {
		case w.ycsb:
			s.sources = append(s.sources, newYCSBSource(seed, c, conns))
		case w.seqCrash && faults:
			s.sources = append(s.sources, &chaosSource{conn: c, window: window, acks: &s.acks})
		default:
			s.sources = append(s.sources, newEchoSource(seed, c))
		}
	}
	return s, nil
}

func (s *system) close() {
	s.sys.Close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// converge waits until every live replica has executed the same number of
// operations, and reports whether that happened within limit.
func (s *system) converge(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		same := true
		first := uint64(0)
		for i, seen := 0, false; i < s.sys.NumReplicas; i++ {
			if !s.sys.Alive(i) {
				continue
			}
			if n := s.sys.ExecutedAt(i); !seen {
				first, seen = n, true
			} else if n != first {
				same = false
			}
		}
		if same {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statesEqual compares the replicas' kvstore snapshots by hash.
func (s *system) statesEqual() bool {
	var first [32]byte
	for i, st := range s.stores {
		h := sha256.Sum256(st.Snapshot())
		if i == 0 {
			first = h
		} else if h != first {
			return false
		}
	}
	return true
}

// tmpRoot holds the durable workloads' data directories; run.sh creates
// it inside the checkout.
var tmpRoot = filepath.Join(".bench_build", "tmp")

func (w workload) String() string {
	fabric := "simnet"
	if w.udp {
		fabric = "loopback UDP"
	}
	loop := "closed loop"
	if w.open {
		loop = fmt.Sprintf("open loop at %d ops/s", openRate)
	}
	return fmt.Sprintf("%s over %s, %s", w.protocol, fabric, loop)
}
