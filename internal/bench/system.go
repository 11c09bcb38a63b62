package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/batch"
	"neobft/internal/chaos"
	"neobft/internal/configsvc"
	"neobft/internal/metrics"
	"neobft/internal/protocol"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
)

// Protocol names a system under test.
type Protocol string

// The systems of Figs 7–10.
const (
	NeoHM        Protocol = "Neo-HM"
	NeoPK        Protocol = "Neo-PK"
	NeoBN        Protocol = "Neo-BN"
	PBFT         Protocol = "PBFT"
	Zyzzyva      Protocol = "Zyzzyva"
	ZyzzyvaF     Protocol = "Zyzzyva-F"
	HotStuff     Protocol = "HotStuff"
	MinBFT       Protocol = "MinBFT"
	Unreplicated Protocol = "Unreplicated"
)

// AllProtocols lists the systems in the paper's presentation order.
var AllProtocols = []Protocol{Unreplicated, NeoHM, NeoPK, NeoBN, Zyzzyva, ZyzzyvaF, PBFT, HotStuff, MinBFT}

// Invoker is a closed-loop client of any system.
type Invoker interface {
	Invoke(op []byte, deadline time.Duration) ([]byte, error)
}

// Options configures a system under test.
type Options struct {
	Protocol Protocol
	// N is the replica count for 3f+1 protocols (default 4). MinBFT runs
	// 2f+1 replicas for the same f.
	N int
	// AppFactory builds one state machine per replica (default echo).
	AppFactory func(i int) replication.App
	// Net configures the simulated network.
	Net simnet.Options
	// BatchSize for the batching baselines (default 8): the maximum
	// number of requests per batch.
	BatchSize int
	// BatchBytes caps the payload bytes per batch (0 = batch default).
	BatchBytes int
	// BatchLinger bounds how long the oldest queued request may wait
	// before a partial batch is cut anyway (0 = cut whenever polled, the
	// legacy behavior).
	BatchLinger time.Duration
	// BatchAdaptive drives the batch-size target from an EWMA of the
	// leader's queue depth instead of always waiting for BatchSize.
	BatchAdaptive bool
	// ClientWindow is each client's in-flight pipeline window (default 1
	// = closed-loop).
	ClientWindow int
	// CheckpointInterval is the slot interval between checkpoints for
	// every protocol (NeoBFT sync points, PBFT/Zyzzyva/MinBFT stable
	// checkpoints, HotStuff/unreplicated compaction). 0 keeps each
	// protocol's default.
	CheckpointInterval int
	// SignRate for the aom-pk signing-ratio controller (signatures/sec;
	// 0 = sign everything).
	SignRate float64
	// ConfirmFlushEvery batches Neo-BN confirm messages (default 200µs).
	ConfirmFlushEvery time.Duration
	// DropRate injects random drops on sequencer→replica multicast
	// links (Fig 9); applies to NeoBFT systems.
	DropRate float64
	// ClientTimeout is the client retransmission interval (default 1s).
	ClientTimeout time.Duration
	// Transport selects the fabric the system assembles over: "" or
	// "simnet" for the simulated network (configured by Net), "udp" for
	// real loopback UDP sockets.
	Transport string
	// Chaos arms the fault-injection harness: Run executes the schedule
	// during the measured window, wraps every replica's app in a
	// chaos.RecordingApp, and safety-checks the execution histories
	// afterwards (RunResult.Chaos).
	Chaos *chaos.Schedule
	// TraceRate arms cross-node causal tracing: every node gets a
	// tracer, every conn is wrapped to attach/peel trace envelopes, and
	// clients root a sampled trace for roughly this fraction of
	// operations (1 = every op). 0 leaves tracing off entirely — no
	// wrappers are composed and the message path is the untraced one.
	TraceRate float64
	// TraceBuf caps each node tracer's span buffer (0 = tracing default).
	TraceBuf int
	// DataDir arms durable replica state: each replica gets a
	// store.Store under DataDir/replica-<i> journaling executed ops
	// (write-behind) and stable checkpoints (group-commit fsync'd). A
	// killed or crashed replica's warm restart then means "reboot from
	// the data dir": its restore blob is read back from disk rather
	// than from the parent process's memory, and a cold restart wipes
	// the directory first. Empty keeps the legacy in-memory blobs.
	DataDir string
	// FsyncLinger is the store's group-commit linger (see
	// store.Options.FsyncLinger; 0 = store default, <0 = no linger).
	FsyncLinger time.Duration
	// PersistEvery is how often the background persister captures each
	// replica's Persist() blob into its store (default 50ms). Only
	// meaningful with DataDir set.
	PersistEvery time.Duration
}

// System is a running system under test.
type System struct {
	Name string
	// Net is the fabric the system runs over. Capability interfaces
	// (transport.Partitioner, transport.Seeded, ...) are type-asserted by
	// callers that need simnet-only features.
	Net transport.Fabric
	// Transport names the fabric kind actually built ("simnet" or "udp").
	Transport string
	Svc       *configsvc.Service
	Switches  []configsvc.SwitchHandle

	// NewClient builds a closed-loop client with a unique identity.
	NewClient func(id int) Invoker
	// PerReplicaMsgs returns inbound packet counts per replica.
	PerReplicaMsgs func() []uint64
	// PerReplicaBusy returns per-replica handler busy time.
	PerReplicaBusy func() []time.Duration
	// PerReplicaPkts returns per-replica rx+tx packet counts.
	PerReplicaPkts func() []uint64
	// AuthOps sums authenticator operations (tags + verifies) over all
	// replicas, including client-facing MACs.
	AuthOps func() uint64
	// Committed reports ops executed at replica 0.
	Committed func() uint64
	// Replicas exposes protocol-specific handles (*neobft.Replica etc.).
	Replicas []interface{}
	// Metrics holds one registry per instrumented node: the replica
	// registries in replica order, followed by sequencer-switch
	// registries for the NeoBFT systems. Run merges them into the
	// system-wide snapshot of RunResult.Metrics.
	Metrics []*metrics.Registry
	// Close stops everything.
	Close func()

	// Node lifecycle (chaos harness). Crash persists replica i's stable
	// checkpoint and stops it; Restart boots it again, warm from that
	// blob or cold (discarding it, forcing snapshot state transfer from
	// peers). All are installed for every protocol.
	Crash   func(i int) error
	Restart func(i int, cold bool) error
	// Kill stops replica i without the graceful final persist — the
	// in-process equivalent of SIGKILL. With DataDir set, a warm
	// restart then recovers from whatever the background persister
	// last made durable; without it the restart is effectively cold.
	Kill func(i int) error
	// Alive reports whether replica i is running.
	Alive func(i int) bool
	// SkewClock multiplies replica i's timer durations by factor.
	SkewClock func(i int, factor float64)
	// CrashSequencer crashes the live sequencer switch (NeoBFT systems
	// only; nil or false otherwise).
	CrashSequencer func() bool
	// ExecutedAt reports ops executed at replica i.
	ExecutedAt func(i int) uint64
	// ReplicaID maps replica index to network node ID.
	ReplicaID func(i int) transport.NodeID
	// NumReplicas is the replica count actually built (MinBFT runs 2f+1).
	NumReplicas int

	// Chaos is the armed schedule (nil unless Options.Chaos was set) and
	// RecApps the per-replica recording wrappers feeding the checker.
	Chaos   *chaos.Schedule
	RecApps []*chaos.RecordingApp

	// Tracers holds every node tracer created for this system — replicas
	// and sequencer switches at build time, clients as NewClient runs —
	// when Options.TraceRate > 0; empty otherwise. DrainSpans merges
	// their span buffers into the dump cmd/neotrace consumes.
	Tracers []*tracing.Tracer
	traceMu sync.Mutex
	// BatchMax, BatchBytes, BatchLinger, BatchAdaptive and ClientWindow
	// record the batching/pipelining configuration the system was built
	// with; the load generators copy them into RunResult.Config.
	BatchMax      int
	BatchBytes    int
	BatchLinger   time.Duration
	BatchAdaptive bool
	ClientWindow  int

	// Durable records whether the system persists replica state to a
	// data dir, and FsyncLinger the group-commit linger it was built
	// with; the load generators copy both into RunResult.Config so
	// metrics.csv rows distinguish durable from in-memory runs.
	Durable     bool
	FsyncLinger time.Duration

	// hosts are the replica nodes, in replica order.
	hosts []*protocol.Host

	// clientReg is the registry shared by every client: client tracers
	// (phase_e2e_ns / phase_reply_ns are observed client-side) and the
	// replication-client series (client_retransmits_total, client_inflight).
	// It is appended to Metrics after the replica and switch registries so
	// index-based node→registry mappings stay stable.
	clientReg *metrics.Registry
	// chaosTr records injected faults as always-sampled spans.
	chaosTr *tracing.Tracer
}

// newTracer creates one node tracer when tracing is enabled, recording
// it on the system for DrainSpans. With tracing off it returns nil, and
// every wrap helper below passes the inner value through untouched.
func (sys *System) newTracer(o Options, node string, reg *metrics.Registry) *tracing.Tracer {
	if o.TraceRate <= 0 {
		return nil
	}
	tr := tracing.New(tracing.Config{Node: node, Rate: o.TraceRate, BufCap: o.TraceBuf, Metrics: reg})
	sys.traceMu.Lock()
	sys.Tracers = append(sys.Tracers, tr)
	sys.traceMu.Unlock()
	return tr
}

// DrainSpans snapshots every tracer's recorded spans, across all nodes
// and clients — the in-process equivalent of concatenating per-process
// span dumps. Feed the result to tracing.BuildTimelines.
func (sys *System) DrainSpans() []tracing.Span {
	sys.traceMu.Lock()
	trs := append([]*tracing.Tracer(nil), sys.Tracers...)
	sys.traceMu.Unlock()
	var out []tracing.Span
	for _, tr := range trs {
		out = append(out, tr.Drain()...)
	}
	return out
}

// Starter is a pipelined client: Start submits an operation without
// waiting for its result. Every protocol client in this repository
// implements it alongside the closed-loop Invoke.
type Starter interface {
	Start(op []byte, deadline time.Duration) replication.Call
}

// starterInvoker pairs the traced closed-loop view of a client with its
// raw pipelined Start. Trace roots cover Invoke only: pipelined
// operations overlap, so a per-op root span has no single active window
// on the client goroutine.
type starterInvoker struct {
	Invoker
	s Starter
}

func (si starterInvoker) Start(op []byte, deadline time.Duration) replication.Call {
	return si.s.Start(op, deadline)
}

// traceInvoker decorates a protocol client with the trace-root wrapper
// (sampling decision + request span) when tracing is on, preserving the
// client's pipelined Start.
func traceInvoker(c protocol.Client, tr *tracing.Tracer) Invoker {
	if tr == nil {
		return c
	}
	return starterInvoker{Invoker: tracing.WrapInvoker(c, tr), s: c}
}

const (
	switchBase = transport.NodeID(20000)
	clientBase = transport.NodeID(10000)
)

// mustSpec resolves a protocol name against the spec table; an unknown
// name is a programming error in the caller.
func mustSpec(p Protocol) *protocol.Spec {
	spec, err := protocol.Lookup(string(p))
	if err != nil {
		panic("bench: " + err.Error())
	}
	return spec
}

// FleetSize reports how many replicas Build will create for the given
// protocol and configured N (0 = default). Chaos schedules are generated
// against this count so fault targets stay in range.
func FleetSize(p Protocol, n int) int { return mustSpec(p).FleetSize(n) }

// Build constructs and starts a system under test.
func Build(o Options) *System {
	if o.BatchSize == 0 {
		o.BatchSize = 8
	}
	if o.ConfirmFlushEvery == 0 {
		o.ConfirmFlushEvery = 200 * time.Microsecond
	}
	if o.ClientTimeout == 0 {
		o.ClientTimeout = time.Second
	}
	if o.ClientWindow == 0 {
		o.ClientWindow = 1
	}
	if o.AppFactory == nil {
		o.AppFactory = func(int) replication.App { return replication.EchoApp{} }
	}
	spec := mustSpec(o.Protocol)
	cl := spec.Cluster(o.N, protocol.Params{
		Batch: batch.Config{
			MaxCount:  o.BatchSize,
			MaxBytes:  o.BatchBytes,
			MaxLinger: o.BatchLinger,
			Adaptive:  o.BatchAdaptive,
		},
		CheckpointInterval: o.CheckpointInterval,
		ConfirmFlushEvery:  o.ConfirmFlushEvery,
	})
	sys := &System{
		Name:          string(o.Protocol),
		BatchMax:      o.BatchSize,
		BatchBytes:    o.BatchBytes,
		BatchLinger:   o.BatchLinger,
		BatchAdaptive: o.BatchAdaptive,
		ClientWindow:  o.ClientWindow,
		NumReplicas:   cl.N,
		Chaos:         o.Chaos,
		Durable:       o.DataDir != "",
		clientReg:     metrics.NewRegistry(),
	}
	if sys.Durable {
		sys.FsyncLinger = o.FsyncLinger
	}
	if o.Chaos != nil {
		sys.RecApps = make([]*chaos.RecordingApp, cl.N)
	}
	fab := sys.newFabric(o)
	// One registry per replica, ahead of the switch registries. The
	// process-wide Go heap gauges live on the first only: Merge sums Func
	// samples, so registering them per replica would multiply the
	// (shared) heap by n.
	for range cl.Members {
		sys.Metrics = append(sys.Metrics, metrics.NewRegistry())
	}
	metrics.RegisterHeapGauges(sys.Metrics[0])
	if spec.Sequencer() {
		sys.buildSequencers(o, cl)
	}

	conns := make([]*countingConn, cl.N)
	sys.hosts = make([]*protocol.Host, cl.N)
	sys.Replicas = make([]interface{}, cl.N)
	for i := range sys.hosts {
		conns[i] = &countingConn{}
		sys.hosts[i] = protocol.NewHost(protocol.HostConfig{
			Cluster: cl,
			Index:   i,
			Fabric:  countedFabric{fab, conns[i]},
			Metrics: sys.Metrics[i],
			Tracer:  sys.newTracer(o, fmt.Sprintf("replica-%d", i), sys.Metrics[i]),
			App: func() replication.App {
				app := o.AppFactory(i)
				if o.Chaos != nil {
					// Record execution histories for the post-run safety
					// check. The wrapper snapshots/restores the history
					// alongside the inner app, so state transfer carries it
					// to recovering replicas.
					sys.RecApps[i] = chaos.NewRecordingApp(app)
					app = sys.RecApps[i]
				}
				return app
			},
			DataDir:      o.DataDir,
			FsyncLinger:  o.FsyncLinger,
			PersistEvery: o.PersistEvery,
		})
		if err := sys.hosts[i].Boot(false); err != nil {
			panic("bench: " + err.Error())
		}
		sys.Replicas[i] = sys.hosts[i].Replica()
	}
	sys.installLifecycle()
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaPkts = pktCounter(conns)
	sys.ReplicaID = func(i int) transport.NodeID { return cl.Members[i] }
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		c, err := cl.NewClient(
			tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			replication.Tuning{Window: o.ClientWindow, Timeout: o.ClientTimeout, Metrics: sys.clientReg})
		if err != nil {
			panic(err)
		}
		return traceInvoker(c, ctr)
	}
	sys.Close = func() {
		for _, h := range sys.hosts {
			_ = h.Kill() // replicas already down stay down
		}
		fab.Close()
	}
	// Appended after the replica and switch registries: the udp fabric's
	// MetricsFor maps node ID i+1 to Metrics[i], so the client registry
	// must not shift those indices.
	sys.Metrics = append(sys.Metrics, sys.clientReg)
	if o.TraceRate > 0 {
		sys.chaosTr = sys.newTracer(o, "chaos", nil)
	}
	return sys
}

// newFabric builds the fabric Options.Transport names.
func (sys *System) newFabric(o Options) transport.Fabric {
	switch o.Transport {
	case "udp":
		// Real loopback UDP sockets, bound on demand. Per-node conn
		// counters land in the node's shared metrics registry (replica i
		// has node ID i+1; switches and clients get private registries).
		sys.Net = udpnet.NewLoopback(udpnet.FabricConfig{
			Config: udpnet.Config{RcvBuf: 1 << 20, SndBuf: 1 << 20},
			MetricsFor: func(id transport.NodeID) *metrics.Registry {
				if i := int(id) - 1; i >= 0 && i < len(sys.Metrics) {
					return sys.Metrics[i]
				}
				return nil
			},
		})
		sys.Transport = "udp"
	case "", "simnet":
		netOpts := o.Net
		if netOpts.Latency > 0 && netOpts.LatencyOverride == nil {
			// The sequencer switch sits on the client→replica path: traffic
			// through it pays half the host-to-host latency on each leg plus
			// the authentication-pipeline latency on the stamped leg
			// (Figs 4-5: ~9µs for aom-hm, ~3µs for aom-pk).
			half := netOpts.Latency / 2
			pipeline := 9 * time.Microsecond
			if o.Protocol == NeoPK {
				pipeline = 3 * time.Microsecond
			}
			netOpts.LatencyOverride = func(from, to transport.NodeID) (time.Duration, bool) {
				if to >= switchBase {
					return half, true
				}
				if from >= switchBase {
					return half + pipeline, true
				}
				return 0, false
			}
		}
		if o.DropRate > 0 {
			netOpts.DropRate = o.DropRate
			netOpts.DropFilter = func(from, to transport.NodeID) bool {
				return from >= switchBase // only aom multicast drops
			}
		}
		sys.Net = simnet.Fabric{Network: simnet.New(netOpts)}
		sys.Transport = "simnet"
	default:
		panic(fmt.Sprintf("bench: unknown transport %q", o.Transport))
	}
	return sys.Net
}

// buildSequencers starts the two sequencer switches of a NeoBFT system
// and the configuration service that fails over between them, and
// creates the replica group.
func (sys *System) buildSequencers(o Options, cl *protocol.Cluster) {
	svc := configsvc.New(cl.Spec.Variant, []byte(protocol.AOMMaster))
	sys.Svc, cl.Svc = svc, svc
	for i := 0; i < 2; i++ {
		id := switchBase + transport.NodeID(i)
		swReg := metrics.NewRegistry()
		swTr := sys.newTracer(o, fmt.Sprintf("sequencer-%d", i), swReg)
		sw := sequencer.New(tracing.WrapConn(join(sys.Net, id), swTr), sequencer.Options{
			Variant:  cl.Spec.Variant,
			PKSeed:   []byte{byte(i + 1)},
			SignRate: o.SignRate,
			Metrics:  swReg,
			Tracer:   swTr,
		})
		sys.Metrics = append(sys.Metrics, swReg)
		h := configsvc.SwitchHandle{ID: id, SW: sw}
		sys.Switches = append(sys.Switches, h)
		svc.RegisterSwitch(h)
	}
	if _, err := svc.CreateGroup(protocol.Group, cl.Members); err != nil {
		panic(err)
	}
	sys.CrashSequencer = func() bool {
		v, err := svc.View(protocol.Group)
		if err != nil {
			return false
		}
		for _, h := range sys.Switches {
			if h.ID == v.Sequencer {
				h.SW.SetFault(sequencer.FaultCrash)
				return true
			}
		}
		return false
	}
}

// join attaches a node to the fabric, panicking on failure — system
// assembly joins statically chosen IDs, for which failure is a
// programming error (duplicate ID) or an unusable environment.
func join(fab transport.Fabric, id transport.NodeID) transport.Conn {
	c, err := fab.Join(id)
	if err != nil {
		panic(fmt.Sprintf("bench: join node %d: %v", id, err))
	}
	return c
}

// countingConn wraps a transport.Conn, counting inbound and outbound
// packets. Handler busy time is measured by the replica runtimes, which
// time verification and apply work directly.
//
// The inner conn is swappable: a crash–restart cycle closes the old
// fabric node and joins a fresh one, but keeps the countingConn (and its
// counters) so per-replica packet accounting spans restarts.
type countingConn struct {
	mu    sync.RWMutex
	conn  transport.Conn
	count atomic.Uint64
	sent  atomic.Uint64
}

func (c *countingConn) inner() transport.Conn {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.conn
}

// swap replaces the inner conn (the handler is installed by the booting
// replica's runtime right after).
func (c *countingConn) swap(conn transport.Conn) {
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
}

func (c *countingConn) ID() transport.NodeID { return c.inner().ID() }

func (c *countingConn) Close() error { return c.inner().Close() }

func (c *countingConn) SetHandler(h transport.Handler) {
	c.inner().SetHandler(func(from transport.NodeID, pkt []byte) {
		c.count.Add(1)
		h(from, pkt)
	})
}

func (c *countingConn) Send(to transport.NodeID, pkt []byte) {
	c.sent.Add(1)
	c.inner().Send(to, pkt)
}

// Cork and Flush forward transport.Corker to the current inner conn.
func (c *countingConn) Cork()  { transport.CorkerOf(c.inner()).Cork() }
func (c *countingConn) Flush() { transport.CorkerOf(c.inner()).Flush() }

// countedFabric joins one replica through its countingConn: every boot
// swaps the freshly joined conn underneath and hands the host the same
// counting wrapper.
type countedFabric struct {
	transport.Fabric
	cc *countingConn
}

func (f countedFabric) Join(id transport.NodeID) (transport.Conn, error) {
	conn, err := f.Fabric.Join(id)
	if err != nil {
		return nil, err
	}
	f.cc.swap(conn)
	return f.cc, nil
}

func msgCounter(conns []*countingConn) func() []uint64 {
	return func() []uint64 {
		out := make([]uint64, len(conns))
		for i, c := range conns {
			out[i] = c.count.Load()
		}
		return out
	}
}

func pktCounter(conns []*countingConn) func() []uint64 {
	return func() []uint64 {
		out := make([]uint64, len(conns))
		for i, c := range conns {
			out[i] = c.count.Load() + c.sent.Load()
		}
		return out
	}
}
