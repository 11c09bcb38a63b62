// Package neobft_bench holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (§6), plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each macro benchmark drives a full system under closed-loop
// load and reports throughput and latency as custom metrics; the
// companion CLI (cmd/neobench) prints the full tables.
//
// Run with:
//
//	go test -bench=. -benchmem
package neobft_bench

import (
	"fmt"
	"testing"
	"time"

	"neobft/internal/batch"
	"neobft/internal/bench"
	"neobft/internal/crypto/auth"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/kvstore"
	"neobft/internal/pbft"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/ycsb"
)

// measure runs one closed-loop window against a system and reports
// throughput/latency metrics. Macro benchmarks run the window once per
// b.N batch (the window length already averages thousands of ops).
func measure(b *testing.B, opts bench.Options, clients int, op func(client, seq int) []byte) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys := bench.Build(opts)
		res := bench.Run(sys, bench.Load{
			Clients:  clients,
			Warmup:   100 * time.Millisecond,
			Duration: 400 * time.Millisecond,
			Op:       op,
		})
		sys.Close()
		s := bench.Summarize(res.Latencies)
		b.ReportMetric(res.Throughput, "ops/s")
		b.ReportMetric(res.ProjectedTput, "proj-ops/s")
		b.ReportMetric(float64(s.Median.Microseconds()), "median-µs")
		b.ReportMetric(res.MsgsPerOp, "msgs/op")
	}
}

// --- Figure 7: latency vs throughput, one benchmark per system ---------

func BenchmarkFig7_Unreplicated(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.Unreplicated}, 16, nil)
}

func BenchmarkFig7_NeoHM(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.NeoHM}, 16, nil)
}

func BenchmarkFig7_NeoPK(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.NeoPK, SignRate: 2000}, 16, nil)
}

func BenchmarkFig7_NeoBN(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.NeoBN}, 16, nil)
}

func BenchmarkFig7_Zyzzyva(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.Zyzzyva}, 16, nil)
}

func BenchmarkFig7_ZyzzyvaF(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.ZyzzyvaF}, 16, nil)
}

func BenchmarkFig7_PBFT(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.PBFT}, 16, nil)
}

func BenchmarkFig7_HotStuff(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.HotStuff}, 16, nil)
}

func BenchmarkFig7_MinBFT(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.MinBFT}, 16, nil)
}

// --- Table 1: measured complexity (unbatched) ---------------------------

func BenchmarkTable1_Complexity(b *testing.B) {
	for _, p := range []bench.Protocol{bench.NeoHM, bench.PBFT, bench.Zyzzyva, bench.MinBFT} {
		b.Run(string(p), func(b *testing.B) {
			measure(b, bench.Options{Protocol: p, BatchSize: 1}, 4, nil)
		})
	}
}

// --- Figures 4-6: aom hardware models ------------------------------------

func BenchmarkFig4_AOMHMLatency(b *testing.B) {
	m := sequencer.HMACModel(4)
	for i := 0; i < b.N; i++ {
		s := m.SimulateLatency(0.5, 10000, 1)
		b.ReportMetric(float64(sequencer.Percentile(s, 50).Nanoseconds())/1000, "p50-µs")
	}
}

func BenchmarkFig5_AOMPKLatency(b *testing.B) {
	m := sequencer.PKModel(4)
	for i := 0; i < b.N; i++ {
		s := m.SimulateLatency(0.5, 10000, 1)
		b.ReportMetric(float64(sequencer.Percentile(s, 50).Nanoseconds())/1000, "p50-µs")
	}
}

func BenchmarkFig6_AOMThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(sequencer.HMACModel(4).MaxThroughput()/1e6, "hm4-Mpps")
		b.ReportMetric(sequencer.HMACModel(64).MaxThroughput()/1e6, "hm64-Mpps")
		b.ReportMetric(sequencer.PKModel(64).MaxThroughput()/1e6, "pk-Mpps")
	}
}

// --- Figure 8: scalability ------------------------------------------------

func BenchmarkFig8_Scalability(b *testing.B) {
	for _, n := range []int{4, 10, 22} {
		b.Run(string(rune('0'+n/10))+string(rune('0'+n%10))+"replicas", func(b *testing.B) {
			measure(b, bench.Options{Protocol: bench.NeoHM, N: n}, 8, nil)
		})
	}
}

// --- Figure 9: drops --------------------------------------------------------

func BenchmarkFig9_Drops(b *testing.B) {
	for _, rate := range []float64{0.0001, 0.01} {
		name := "0.01pct"
		if rate == 0.01 {
			name = "1pct"
		}
		b.Run(name, func(b *testing.B) {
			measure(b, bench.Options{Protocol: bench.NeoHM, DropRate: rate, ClientTimeout: 200 * time.Millisecond}, 16, nil)
		})
	}
}

// --- Figure 10: YCSB --------------------------------------------------------

func BenchmarkFig10_YCSB(b *testing.B) {
	wl := ycsb.WorkloadA()
	wl.RecordCount = 10_000
	for _, p := range []bench.Protocol{bench.NeoHM, bench.PBFT} {
		b.Run(string(p), func(b *testing.B) {
			gens := make([]*ycsb.Generator, 64)
			for i := range gens {
				gens[i] = ycsb.NewGenerator(wl, int64(i))
			}
			opts := bench.Options{
				Protocol: p,
				AppFactory: func(int) replication.App {
					s := kvstore.NewStore()
					ycsb.Load(s, wl)
					return s
				},
			}
			measure(b, opts, 16, func(client, seq int) []byte {
				return gens[client%len(gens)].Next()
			})
		})
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------

// BenchmarkAblation_Precompute compares k·G with the precomputed
// generator table (the FPGA pre-compute module) against plain
// double-and-add.
func BenchmarkAblation_Precompute(b *testing.B) {
	var kb [32]byte
	copy(kb[8:], []byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe,
		0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef,
		0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	k := secp256k1.NewScalarReduced(kb)
	b.Run("table", func(b *testing.B) {
		secp256k1.BaseMult(k) // warm the table
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			secp256k1.BaseMult(k)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			secp256k1.BaseMultSlow(k)
		}
	})
}

// BenchmarkAblation_SignRatio compares aom-pk with the signing-ratio
// controller + hash chaining against signing every packet.
func BenchmarkAblation_SignRatio(b *testing.B) {
	for name, rate := range map[string]float64{"sign-all": 0, "ratio-2000": 2000} {
		b.Run(name, func(b *testing.B) {
			measure(b, bench.Options{Protocol: bench.NeoPK, SignRate: rate}, 8, nil)
		})
	}
}

// BenchmarkAblation_ConfirmBatching compares Neo-BN with per-packet
// confirms against batched confirm flushing (§6.2).
func BenchmarkAblation_ConfirmBatching(b *testing.B) {
	b.Run("unbatched", func(b *testing.B) {
		measure(b, bench.Options{Protocol: bench.NeoBN, ConfirmFlushEvery: -1}, 16, nil)
	})
	b.Run("batched-200us", func(b *testing.B) {
		measure(b, bench.Options{Protocol: bench.NeoBN, ConfirmFlushEvery: 200 * time.Microsecond}, 16, nil)
	})
}

// BenchmarkAblation_HMACSubgroups quantifies the folded-pipeline
// subgroup design: vector generation throughput for one 4-lane engine
// pass versus the naive 6-pass-per-HMAC reference (§4.3).
func BenchmarkAblation_HMACSubgroups(b *testing.B) {
	unrolled := sequencer.HMACModel(16) // 4 subgroup bundles
	// The reference design computes one HMAC per 6 passes with no
	// parallel lanes: model it as 4x the per-packet units with a single
	// lane per bundle.
	naive := unrolled
	naive.UnitsPerPacket *= 4
	b.ReportMetric(unrolled.MaxThroughput()/1e6, "unrolled-Mpps")
	b.ReportMetric(naive.MaxThroughput()/1e6, "naive-Mpps")
}

// BenchmarkAblation_Batching sweeps the baseline batch size, showing why
// baselines need batching (and the latency it costs) while NeoBFT runs
// unbatched.
func BenchmarkAblation_Batching(b *testing.B) {
	for _, size := range []int{1, 8, 32} {
		b.Run(string(rune('0'+size/10))+string(rune('0'+size%10)), func(b *testing.B) {
			measure(b, bench.Options{Protocol: bench.PBFT, BatchSize: size}, 16, nil)
		})
	}
}

// BenchmarkEndToEnd_UDP exercises the real-socket transport under the
// same protocol stack (sanity check that simnet numbers are not an
// artifact of in-memory channels).
func BenchmarkEndToEnd_SimnetLatency(b *testing.B) {
	measure(b, bench.Options{Protocol: bench.NeoHM, Net: simnet.Options{Latency: 20 * time.Microsecond}}, 4, nil)
}

// --- Verification pipeline (internal/runtime) -------------------------------

// sinkConn is a transport.Conn that swallows outbound packets; the
// benchmark plays the delivery goroutine itself.
type sinkConn struct {
	id      transport.NodeID
	handler transport.Handler
}

func (c *sinkConn) ID() transport.NodeID                 { return c.id }
func (c *sinkConn) Send(to transport.NodeID, pkt []byte) {}
func (c *sinkConn) SetHandler(h transport.Handler)       { c.handler = h }
func (c *sinkConn) Close() error                         { return nil }

// benchVerifyFlood floods one PBFT replica with authenticated
// prepare/commit packets from every peer and measures packets retired
// per second through the runtime. workers < 0 verifies inline on the
// delivery goroutine; workers > 0 verifies on that many pipeline
// workers with in-order retirement. Sequence numbers cycle through a
// small window so slot state stays bounded and the steady-state cost is
// pure decode + HMAC-vector verification + apply.
func benchVerifyFlood(b *testing.B, n, workers int) {
	b.Helper()
	f := (n - 1) / 3
	master := []byte("replica-master")
	mem := make([]transport.NodeID, n)
	for i := range mem {
		mem[i] = transport.NodeID(i + 1)
	}
	conn := &sinkConn{id: mem[0]}
	rt := runtime.New(runtime.Config{Conn: conn, Workers: workers, Queue: 8192})
	r := pbft.New(pbft.Config{
		Config: replica.Config{
			Self: 0, N: n, F: f,
			Members:    mem,
			Conn:       conn,
			Auth:       auth.NewHMACAuth(master, 0, n),
			ClientAuth: auth.NewReplicaSide([]byte("client-master"), 0),
			App:        replication.EchoApp{},
			Runtime:    rt,
		},
		Batch: batch.Config{MaxCount: 8},
	})
	defer r.Close()

	// Pre-encode the flood: prepares and commits for a window of slots
	// from every peer replica, exactly as peers would broadcast them.
	const seqWindow = 256
	digest := replication.RequestDigest(&replication.Request{ReqID: 1, Op: []byte("flood")})
	type delivery struct {
		from transport.NodeID
		pkt  []byte
	}
	var flood []delivery
	for rep := 1; rep < n; rep++ {
		a := auth.NewHMACAuth(master, rep, n)
		for seq := uint64(1); seq <= seqWindow; seq++ {
			flood = append(flood,
				delivery{mem[rep], pbft.EncodePrepare(a, uint32(rep), 0, seq, digest)},
				delivery{mem[rep], pbft.EncodeCommit(a, uint32(rep), 0, seq, digest)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := flood[i%len(flood)]
		conn.handler(d.from, d.pkt)
	}
	rt.Flush() // count queued work into the timed region
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkVerifyInline is the baseline: authenticator verification runs
// on the delivery goroutine, serialized with apply.
func BenchmarkVerifyInline(b *testing.B) {
	for _, n := range []int{4, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchVerifyFlood(b, n, -1) })
	}
}

// BenchmarkVerifyPipelined runs the same flood with verification on
// runtime workers. On a multi-core host the verification stage scales
// with the worker count while apply stays single-threaded; with
// GOMAXPROCS=1 it mostly measures pipeline overhead.
func BenchmarkVerifyPipelined(b *testing.B) {
	for _, n := range []int{4, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchVerifyFlood(b, n, 4) })
	}
}
