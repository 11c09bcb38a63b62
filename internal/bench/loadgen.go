package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/metrics"
	"neobft/internal/tracing"
	"neobft/internal/transport"
)

// RunConfig records how a run drove the system: load-generation mode
// and the batching/pipelining knobs the system was built with. It rides
// on RunResult so exported data (metrics.csv) is self-describing.
type RunConfig struct {
	// Mode is "closed" (fixed clients, one op in flight each) or "open"
	// (Poisson arrivals at a target rate).
	Mode string
	// Clients is the number of load-generating clients.
	Clients int
	// Window is each client's pipeline window (1 = closed-loop).
	Window int
	// Rate is the offered load in ops/s (open mode only; 0 otherwise).
	Rate float64
	// BatchMax / BatchBytes / BatchLinger / BatchAdaptive echo the
	// leader batching configuration (see Options).
	BatchMax      int
	BatchBytes    int
	BatchLinger   time.Duration
	BatchAdaptive bool
	// Durable records whether replicas persisted state to a data dir
	// during this run (Options.DataDir), and FsyncLinger the store's
	// group-commit linger — so metrics.csv rows distinguish durable
	// runs from in-memory ones.
	Durable     bool
	FsyncLinger time.Duration
}

// runConfig snapshots the system's build-time batching/window knobs
// into a RunConfig for one run.
func (sys *System) runConfig(mode string, clients int, rate float64) RunConfig {
	return RunConfig{
		Mode:          mode,
		Clients:       clients,
		Window:        sys.ClientWindow,
		Rate:          rate,
		BatchMax:      sys.BatchMax,
		BatchBytes:    sys.BatchBytes,
		BatchLinger:   sys.BatchLinger,
		BatchAdaptive: sys.BatchAdaptive,
		Durable:       sys.Durable,
		FsyncLinger:   sys.FsyncLinger,
	}
}

// RunResult is the outcome of one load run (closed- or open-loop).
type RunResult struct {
	// Config records the load mode and the batching/pipelining knobs
	// this run was driven with.
	Config RunConfig
	// Throughput is committed operations per second during the measured
	// window, with every node sharing this host's CPU.
	Throughput float64
	// ProjectedTput is the bottleneck projection: ops ÷ the busiest
	// replica's handler busy time. It estimates throughput on the
	// paper's deployment, where each replica has a dedicated machine
	// and the busiest replica is the limit.
	ProjectedTput float64
	// Latencies holds per-operation latencies from the measured window.
	Latencies []time.Duration
	// Errors counts operations that failed (timed out) and either
	// started or failed inside the measured window.
	Errors int
	// MsgsPerOp is the busiest replica's inbound messages per committed
	// op (the paper's bottleneck complexity, Table 1).
	MsgsPerOp float64
	// AuthPerOp is total authenticator operations per committed op
	// across all replicas (the paper's authenticator complexity).
	AuthPerOp float64
	// PktsPerOp is the busiest replica's rx+tx packets per committed op.
	PktsPerOp float64
	// Committed is ops executed at replica 0 during the window.
	Committed uint64
	// Metrics is the system-wide metric snapshot: every node registry in
	// sys.Metrics merged (counters summed, histograms bucket-merged) and
	// flattened into sorted (name, value) points. Unlike the fields
	// above, these are cumulative since system start — they include the
	// warmup, because histogram percentiles cannot be windowed by
	// differencing.
	Metrics []metrics.FlatPoint
	// Seed is the simulated network's randomness seed — rerunning with
	// the same seed reproduces the same drop/jitter decisions. Zero on
	// fabrics without replayable randomness (udp).
	Seed int64
	// Transport names the fabric the run used ("simnet", "udp", ...).
	Transport string
	// Chaos holds the fault-injection report and safety-check result
	// when the system was built with Options.Chaos.
	Chaos *ChaosOutcome
	// Spans holds every node's recorded causal spans when the system was
	// built with Options.TraceRate > 0 (nil otherwise). Like Metrics they
	// are cumulative since system start: the span buffers are append-once
	// and this is a snapshot, so a second Run on the same system also
	// returns the first run's spans. Feed them to tracing.BuildTimelines
	// for the commit-path phase attribution.
	Spans []tracing.Span
}

// ChaosOutcome bundles what a chaos run did and whether it was safe.
type ChaosOutcome struct {
	// Schedule is the executed fault timeline.
	Schedule *chaos.Schedule
	// Report is what the executor actually applied, with recovery
	// latencies for restarted replicas.
	Report chaos.Report
	// Check is the post-run safety verdict over the surviving replicas'
	// execution histories and the client-visible acks.
	Check chaos.Result
}

// Load describes one closed-loop run.
type Load struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Warmup and Duration split the run into a discarded ramp-up phase
	// and the measured window.
	Warmup   time.Duration
	Duration time.Duration
	// Op generates the operation payload for (client, sequence).
	// Defaults to a fixed 64-byte echo payload.
	Op func(client, seq int) []byte
	// OpTimeout bounds each invocation (default 30s).
	OpTimeout time.Duration
	// PacketCost models the per-packet network-stack CPU cost each
	// replica pays on a real deployment (kernel UDP rx/tx path); our
	// in-memory channels are nearly free, so the bottleneck projection
	// charges this per rx+tx packet. Default 3µs.
	PacketCost time.Duration
}

// defaultOp is the random-string echo request of §6.2 (fixed here for
// determinism; content does not affect the protocols).
var defaultOp = func(client, seq int) []byte {
	op := make([]byte, 64)
	for i := range op {
		op[i] = byte('a' + (client+seq+i)%26)
	}
	return op
}

// Run drives closed-loop clients against the system and measures
// latency and throughput in the measured window.
func Run(sys *System, load Load) RunResult {
	chaosArmed := sys.Chaos != nil
	if load.Op == nil {
		if chaosArmed {
			// Chaos ops carry a (client, seq) header so the post-run
			// checker can match acks against execution histories.
			load.Op = func(client, seq int) []byte {
				return chaos.EncodeOp(uint32(client), uint64(seq), 64)
			}
		} else {
			load.Op = defaultOp
		}
	}
	if load.OpTimeout == 0 {
		load.OpTimeout = 30 * time.Second
	}
	if load.PacketCost == 0 {
		load.PacketCost = 3 * time.Microsecond
	}
	var (
		rec  = newRecorder(load.Clients)
		stop atomic.Bool
		wg   sync.WaitGroup
		acks chaos.AckRecorder
	)
	record := func(idx int, op []byte, started bool, err error, elapsed time.Duration) {
		if err == nil && chaosArmed {
			if client, s, ok := chaos.DecodeOp(op); ok {
				acks.Record(client, s)
			}
		}
		rec.done(idx, started, err, elapsed)
	}
	for c := 0; c < load.Clients; c++ {
		cl := sys.NewClient(c)
		idx := c
		st, pipelined := cl.(Starter)
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := 0
			if pipelined && sys.ClientWindow > 1 {
				// Pipelined closed loop: keep the client's window full.
				// Start blocks while the window is full, so each client
				// holds exactly ClientWindow ops in flight.
				var inflight sync.WaitGroup
				for !stop.Load() {
					op := load.Op(idx, seq)
					seq++
					start, started := time.Now(), rec.started()
					call := st.Start(op, load.OpTimeout)
					inflight.Add(1)
					go func() {
						defer inflight.Done()
						_, err := call.Wait()
						record(idx, op, started, err, time.Since(start))
					}()
				}
				inflight.Wait()
				return
			}
			for !stop.Load() {
				op := load.Op(idx, seq)
				seq++
				start, started := time.Now(), rec.started()
				_, err := cl.Invoke(op, load.OpTimeout)
				record(idx, op, started, err, time.Since(start))
			}
		}()
	}
	time.Sleep(load.Warmup)
	snap0 := snapCounters(sys)
	rec.measuring.Store(true)
	start := time.Now()
	var exec *chaos.Executor
	if chaosArmed {
		exec = chaos.Start(sys.fleet(), sys.Chaos)
	}
	time.Sleep(load.Duration)
	rec.measuring.Store(false)
	window := time.Since(start)
	snap1 := snapCounters(sys)
	var chaosOut *ChaosOutcome
	if exec != nil {
		// Heal the fleet and wait the settle window with clients still
		// driving load, so restarted replicas observe traffic to catch
		// up against.
		report := exec.Finish()
		stop.Store(true)
		wg.Wait()
		// Clients are drained: every ack's op has executed (execution
		// precedes the reply quorum), so histories collected now cover
		// all acks.
		histories := make(map[int][]chaos.Entry)
		for i, ra := range sys.RecApps {
			if ra != nil && sys.Alive(i) {
				histories[i] = ra.History()
			}
		}
		chaosOut = &ChaosOutcome{
			Schedule: sys.Chaos,
			Report:   report,
			Check:    chaos.Check(histories, acks.Acks()),
		}
	} else {
		stop.Store(true)
		wg.Wait()
	}

	var out RunResult
	out.Config = sys.runConfig("closed", load.Clients, 0)
	out.Chaos = chaosOut
	fillSystemState(&out, sys)
	rec.collect(&out, window)
	fillPerOp(&out, snap0, snap1, load.PacketCost)
	return out
}

// recorder collects the per-client outcomes of one load run. A success
// counts when it completes inside the measured window (its latency and
// the window's throughput). A failure counts when the operation started
// inside the window or failed inside it, so an operation that times out
// after the window closes, while the clients drain, is not lost.
type recorder struct {
	measuring atomic.Bool
	clients   []clientOutcomes
}

type clientOutcomes struct {
	mu   sync.Mutex
	lats []time.Duration
	errs int
}

func newRecorder(clients int) *recorder {
	return &recorder{clients: make([]clientOutcomes, clients)}
}

// started reports whether an operation starting now starts inside the
// measured window; the caller passes it back to done.
func (r *recorder) started() bool { return r.measuring.Load() }

// done files client idx's completed operation.
func (r *recorder) done(idx int, started bool, err error, lat time.Duration) {
	if !r.measuring.Load() && (err == nil || !started) {
		return
	}
	c := &r.clients[idx]
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errs++
		return
	}
	c.lats = append(c.lats, lat)
}

// collect moves the outcomes into out, after every client has drained.
func (r *recorder) collect(out *RunResult, window time.Duration) {
	for i := range r.clients {
		out.Latencies = append(out.Latencies, r.clients[i].lats...)
		out.Errors += r.clients[i].errs
	}
	out.Throughput = float64(len(out.Latencies)) / window.Seconds()
}

// counterSnap is one point-in-time reading of the system's per-replica
// counters; differencing two snapshots scopes the per-op metrics to the
// measured window.
type counterSnap struct {
	msgs      []uint64
	busy      []time.Duration
	pkts      []uint64
	auth      uint64
	committed uint64
}

func snapCounters(sys *System) counterSnap {
	return counterSnap{
		msgs:      sys.PerReplicaMsgs(),
		busy:      sys.PerReplicaBusy(),
		pkts:      sys.PerReplicaPkts(),
		auth:      sys.AuthOps(),
		committed: sys.Committed(),
	}
}

// fillSystemState copies the run-independent system state (transport,
// seed, merged metric snapshot, drained spans) into out.
func fillSystemState(out *RunResult, sys *System) {
	out.Transport = sys.Transport
	if s, ok := sys.Net.(transport.Seeded); ok {
		out.Seed = s.Seed()
	}
	if len(sys.Metrics) > 0 {
		snaps := make([][]metrics.Sample, len(sys.Metrics))
		for i, reg := range sys.Metrics {
			snaps[i] = reg.Snapshot()
		}
		out.Metrics = metrics.Flatten(metrics.Merge(snaps...))
	}
	out.Spans = sys.DrainSpans()
}

// fillPerOp computes the windowed per-op metrics (committed ops,
// bottleneck messages/packets/auth per op, projected throughput) from
// two counter snapshots.
func fillPerOp(out *RunResult, s0, s1 counterSnap, packetCost time.Duration) {
	out.Committed = s1.committed - s0.committed
	var maxMsgs uint64
	for i := range s1.msgs {
		if d := s1.msgs[i] - s0.msgs[i]; d > maxMsgs {
			maxMsgs = d
		}
	}
	// The bottleneck replica is the one whose (handler busy time +
	// modeled packet I/O time) is largest.
	var maxCost time.Duration
	for i := range s1.busy {
		cost := s1.busy[i] - s0.busy[i] + time.Duration(s1.pkts[i]-s0.pkts[i])*packetCost
		if cost > maxCost {
			maxCost = cost
		}
	}
	var maxPkts uint64
	for i := range s1.pkts {
		if d := s1.pkts[i] - s0.pkts[i]; d > maxPkts {
			maxPkts = d
		}
	}
	if out.Committed > 0 {
		out.PktsPerOp = float64(maxPkts) / float64(out.Committed)
		out.MsgsPerOp = float64(maxMsgs) / float64(out.Committed)
		out.AuthPerOp = float64(s1.auth-s0.auth) / float64(out.Committed)
		if maxCost > 0 {
			out.ProjectedTput = float64(out.Committed) / maxCost.Seconds()
		}
	}
}

// OpenLoad describes one open-loop run: operations arrive by a Poisson
// process at Rate ops/s, spread evenly over Clients pipelined clients,
// regardless of how fast the system completes them. Latency is measured
// from each operation's *scheduled* arrival time, so queueing delay that
// a closed-loop client would silently absorb (coordinated omission) is
// charged to the operation.
type OpenLoad struct {
	// Rate is the target offered load in operations per second, summed
	// across all clients. Must be > 0.
	Rate float64
	// Clients is how many pipelined clients spread the arrival process
	// (default 4). Each client keeps at most its window in flight: when
	// the window is full, arrivals queue and their waiting time counts
	// toward latency.
	Clients int
	// Warmup and Duration split the run into a discarded ramp-up phase
	// and the measured window.
	Warmup   time.Duration
	Duration time.Duration
	// Op generates the operation payload for (client, sequence).
	Op func(client, seq int) []byte
	// OpTimeout bounds each invocation (default 30s).
	OpTimeout time.Duration
	// PacketCost models per-packet network-stack CPU cost (see Load).
	PacketCost time.Duration
	// Seed fixes the arrival-process randomness (default 1), so a rerun
	// schedules the same arrival times.
	Seed int64
}

// RunOpen drives an open-loop Poisson workload against the system and
// measures latency-under-load and achieved throughput in the measured
// window.
func RunOpen(sys *System, load OpenLoad) RunResult {
	if load.Rate <= 0 {
		panic("bench: OpenLoad.Rate must be > 0")
	}
	if load.Clients == 0 {
		load.Clients = 4
	}
	if load.Op == nil {
		load.Op = defaultOp
	}
	if load.OpTimeout == 0 {
		load.OpTimeout = 30 * time.Second
	}
	if load.PacketCost == 0 {
		load.PacketCost = 3 * time.Microsecond
	}
	if load.Seed == 0 {
		load.Seed = 1
	}
	perClientMean := float64(time.Second) * float64(load.Clients) / load.Rate
	var (
		rec      = newRecorder(load.Clients)
		stop     atomic.Bool
		arrivals sync.WaitGroup // submission loops
		inflight sync.WaitGroup // outstanding completions
	)
	for c := 0; c < load.Clients; c++ {
		cl := sys.NewClient(c)
		st, ok := cl.(Starter)
		if !ok {
			panic(fmt.Sprintf("bench: %T does not implement Start; open-loop load needs a pipelined client", cl))
		}
		idx := c
		arrivals.Add(1)
		go func() {
			defer arrivals.Done()
			rng := rand.New(rand.NewSource(load.Seed + int64(idx)*7919))
			next := time.Now()
			seq := 0
			for !stop.Load() {
				next = next.Add(time.Duration(rng.ExpFloat64() * perClientMean))
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
					if stop.Load() {
						return
					}
				}
				op := load.Op(idx, seq)
				seq++
				sched, started := next, rec.started()
				call := st.Start(op, load.OpTimeout) // blocks while window is full
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					_, err := call.Wait()
					rec.done(idx, started, err, time.Since(sched))
				}()
			}
		}()
	}
	time.Sleep(load.Warmup)
	snap0 := snapCounters(sys)
	rec.measuring.Store(true)
	start := time.Now()
	time.Sleep(load.Duration)
	rec.measuring.Store(false)
	window := time.Since(start)
	snap1 := snapCounters(sys)
	stop.Store(true)
	arrivals.Wait()
	inflight.Wait()

	var out RunResult
	out.Config = sys.runConfig("open", load.Clients, load.Rate)
	fillSystemState(&out, sys)
	rec.collect(&out, window)
	fillPerOp(&out, snap0, snap1, load.PacketCost)
	return out
}

// SaturationPoint is one (offered rate → achieved throughput, latency)
// measurement from an open-loop sweep.
type SaturationPoint struct {
	Rate       float64
	Throughput float64
	Median     time.Duration
	P99        time.Duration
	Errors     int
}

// SaturationSweep runs open-loop points at increasing offered rates,
// each against a freshly built system, and reports the achieved
// throughput and latency at every rate. The saturation knee is where
// Throughput stops tracking Rate and latency takes off.
func SaturationSweep(build func() *System, rates []float64, load OpenLoad) []SaturationPoint {
	var points []SaturationPoint
	for _, r := range rates {
		sys := build()
		l := load
		l.Rate = r
		res := RunOpen(sys, l)
		sys.Close()
		s := Summarize(res.Latencies)
		points = append(points, SaturationPoint{
			Rate:       r,
			Throughput: res.Throughput,
			Median:     s.Median,
			P99:        s.P99,
			Errors:     res.Errors,
		})
	}
	return points
}

// FindMaxThroughput sweeps client counts and returns the best sustained
// throughput along with the sweep points (client count, throughput,
// median latency).
func FindMaxThroughput(build func() *System, clientCounts []int, load Load) (float64, []SweepPoint) {
	var best float64
	var points []SweepPoint
	for _, c := range clientCounts {
		sys := build()
		l := load
		l.Clients = c
		res := Run(sys, l)
		sys.Close()
		sum := Summarize(res.Latencies)
		points = append(points, SweepPoint{Clients: c, Throughput: res.Throughput, Median: sum.Median, P99: sum.P99})
		if res.Throughput > best {
			best = res.Throughput
		}
	}
	return best, points
}

// SweepPoint is one (client count → throughput, latency) measurement.
type SweepPoint struct {
	Clients    int
	Throughput float64
	Median     time.Duration
	P99        time.Duration
}
