package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/hotstuff"
	"neobft/internal/metrics"
	"neobft/internal/minbft"
	"neobft/internal/neobft"
	"neobft/internal/pbft"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/store"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
	"neobft/internal/unreplicated"
	"neobft/internal/usig"
	"neobft/internal/wire"
	"neobft/internal/zyzzyva"
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
	// USIGDelay models the SGX enclave-transition cost per USIG call
	// (MinBFT; default 10µs, the order of an ECALL/OCALL round trip).
	USIGDelay time.Duration
	// VerifyWorkers sets each replica runtime's verification worker
	// count: 0 picks the runtime default, negative runs verification
	// inline on the delivery goroutine.
	VerifyWorkers int
	// Transport selects the fabric the system assembles over: "" or
	// "simnet" for the simulated network (configured by Net), "udp" for
	// real loopback UDP sockets. Ignored when Fabric is set.
	Transport string
	// Fabric, when set, is used directly instead of building one from
	// Transport — e.g. a udpnet.Fabric over a multi-machine address book.
	Fabric transport.Fabric
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
	// Transport names the fabric kind actually built ("simnet", "udp",
	// or "custom" for a caller-supplied fabric).
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

	// stores holds the per-replica durable stores when Options.DataDir
	// was set (entries are swapped by restarts); preRegs are the
	// replica registries, created before the protocol builders run so
	// the stores can register their metrics into them.
	stores  []*store.Store
	preRegs []*metrics.Registry
	lc      *lifecycle

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
func traceInvoker(in Invoker, tr *tracing.Tracer) Invoker {
	if tr == nil {
		return in
	}
	traced := tracing.WrapInvoker(in, tr)
	if s, ok := in.(Starter); ok {
		return starterInvoker{Invoker: traced, s: s}
	}
	return traced
}

// clientTuning bundles the windowing/backoff/metrics knobs every
// protocol client receives.
func clientTuning(sys *System, o Options) replication.Tuning {
	return replication.Tuning{
		Window:  o.ClientWindow,
		Timeout: o.ClientTimeout,
		Metrics: sys.clientReg,
	}
}

const (
	switchBase = transport.NodeID(20000)
	clientBase = transport.NodeID(10000)
)

// FleetSize reports how many replicas Build will create for the given
// protocol and configured N (0 = default). Chaos schedules are generated
// against this count so fault targets stay in range.
func FleetSize(p Protocol, n int) int {
	if n == 0 {
		n = 4
	}
	f := (n - 1) / 3
	if f < 1 && p != Unreplicated {
		f = 1
	}
	switch p {
	case Unreplicated:
		return 1
	case MinBFT:
		return 2*f + 1
	default:
		return n
	}
}

// Build constructs and starts a system under test.
func Build(o Options) *System {
	if o.N == 0 {
		o.N = 4
	}
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
	if o.USIGDelay == 0 {
		o.USIGDelay = 10 * time.Microsecond
	}
	f := (o.N - 1) / 3
	if f < 1 && o.Protocol != Unreplicated {
		f = 1
	}
	sys := &System{
		Name:          string(o.Protocol),
		BatchMax:      o.BatchSize,
		BatchBytes:    o.BatchBytes,
		BatchLinger:   o.BatchLinger,
		BatchAdaptive: o.BatchAdaptive,
		ClientWindow:  o.ClientWindow,
	}
	sys.clientReg = metrics.NewRegistry()
	var fab transport.Fabric
	switch {
	case o.Fabric != nil:
		fab = o.Fabric
		sys.Transport = o.Transport
		if sys.Transport == "" {
			sys.Transport = "custom"
		}
	case o.Transport == "udp":
		// Real loopback UDP sockets, bound on demand. Per-node conn
		// counters land in the node's shared metrics registry (replica i
		// has node ID i+1; switches and clients get private registries).
		fab = udpnet.NewLoopback(udpnet.FabricConfig{
			Config: udpnet.Config{RcvBuf: 1 << 20, SndBuf: 1 << 20},
			MetricsFor: func(id transport.NodeID) *metrics.Registry {
				if i := int(id) - 1; i >= 0 && i < len(sys.Metrics) {
					return sys.Metrics[i]
				}
				return nil
			},
		})
		sys.Transport = "udp"
	case o.Transport == "" || o.Transport == "simnet":
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
		fab = simnet.Fabric{Network: simnet.New(netOpts)}
		sys.Transport = "simnet"
	default:
		panic(fmt.Sprintf("bench: unknown transport %q", o.Transport))
	}
	sys.Net = fab
	// Replica registries are created before the protocol builders run
	// (newRegistries hands these out) so the durable stores can
	// register their metrics into the same per-replica registries.
	nrep := FleetSize(o.Protocol, o.N)
	sys.preRegs = make([]*metrics.Registry, nrep)
	for i := range sys.preRegs {
		sys.preRegs[i] = metrics.NewRegistry()
	}
	metrics.RegisterHeapGauges(sys.preRegs[0])
	sys.Metrics = append(sys.Metrics, sys.preRegs...)
	if o.DataDir != "" {
		sys.Durable = true
		sys.FsyncLinger = o.FsyncLinger
		sys.stores = make([]*store.Store, nrep)
		for i := range sys.stores {
			st, err := store.Open(replicaDir(o.DataDir, i), store.Options{
				FsyncLinger: o.FsyncLinger,
				Metrics:     sys.preRegs[i],
			})
			if err != nil {
				panic(fmt.Sprintf("bench: open store for replica %d: %v", i, err))
			}
			sys.stores[i] = st
		}
		// Journal every executed op (write-behind) through the
		// replica's current store. The factory reads sys.stores at
		// boot time, so a restarted replica journals into the store
		// its restart reopened.
		inner := o.AppFactory
		o.AppFactory = func(i int) replication.App {
			return store.Durable(inner(i), sys.stores[i])
		}
	}
	if o.Chaos != nil {
		// Wrap every replica's app so execution histories are recorded
		// for the post-run safety check. The wrapper snapshots/restores
		// the history alongside the inner app, so state transfer carries
		// it to recovering replicas.
		sys.Chaos = o.Chaos
		inner := o.AppFactory
		o.AppFactory = func(i int) replication.App {
			ra := chaos.NewRecordingApp(inner(i))
			for len(sys.RecApps) <= i {
				sys.RecApps = append(sys.RecApps, nil)
			}
			sys.RecApps[i] = ra
			return ra
		}
	}

	switch o.Protocol {
	case NeoHM, NeoPK, NeoBN:
		buildNeo(sys, o, fab, f)
	case PBFT:
		buildPBFT(sys, o, fab, f)
	case Zyzzyva, ZyzzyvaF:
		buildZyzzyva(sys, o, fab, f)
	case HotStuff:
		buildHotStuff(sys, o, fab, f)
	case MinBFT:
		buildMinBFT(sys, o, fab, f)
	case Unreplicated:
		buildUnreplicated(sys, o, fab)
	default:
		panic(fmt.Sprintf("bench: unknown protocol %q", o.Protocol))
	}
	// Appended after the replica and switch registries: the udp fabric's
	// MetricsFor maps node ID i+1 to Metrics[i], so the client registry
	// must not shift those indices.
	sys.Metrics = append(sys.Metrics, sys.clientReg)
	if o.TraceRate > 0 {
		sys.chaosTr = sys.newTracer(o, "chaos", nil)
	}
	if sys.stores != nil && sys.lc != nil {
		// All protocol closures are set now: arm the disk-backed
		// lifecycle (kill-and-recover restarts + background persister)
		// and make Close flush and release the stores.
		sys.lc.armStores(sys.stores, o)
		inner := sys.Close
		sys.Close = func() {
			sys.lc.stopPersister()
			inner()
			for _, st := range sys.stores {
				if st != nil {
					st.Close()
				}
			}
		}
	}
	return sys
}

// replicaDir is replica i's store directory under a system data dir.
func replicaDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("replica-%d", i))
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
// packets. Handler busy time is measured by the replica runtimes (see
// busyCounter), which time verification and apply work directly.
//
// The inner conn is swappable: a crash–restart cycle closes the old
// simnet node and joins a fresh one, but keeps the countingConn (and its
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

// swap replaces the inner conn (the handler is re-installed by the new
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

func members(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(i + 1)
	}
	return out
}

func joinCounting(fab transport.Fabric, id transport.NodeID) *countingConn {
	return &countingConn{conn: join(fab, id)}
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

// newRuntime builds one replica runtime over a counted (and, when
// tracing, envelope-wrapped) conn, honoring the benchmark's worker
// override and registering the runtime stages into the replica's shared
// metrics registry.
func newRuntime(conn transport.Conn, workers int, reg *metrics.Registry, tr *tracing.Tracer) *runtime.Runtime {
	return runtime.New(runtime.Config{Conn: conn, Workers: workers, Metrics: reg, Tracer: tr})
}

// newRegistries hands each builder the per-replica registries Build
// pre-created (and already appended to sys.Metrics). The process-wide
// Go heap gauges live on the first registry only: Merge sums Func
// samples, so registering them per replica would multiply the
// (shared) heap by n.
func newRegistries(sys *System, n int) []*metrics.Registry {
	if n != len(sys.preRegs) {
		panic(fmt.Sprintf("bench: builder wants %d registries, FleetSize said %d", n, len(sys.preRegs)))
	}
	return sys.preRegs
}

// busyCounter reports per-replica busy time (verification + apply) from
// the runtimes. The busy time of the busiest replica is what bounds
// throughput when every replica has its own machine (the paper's
// deployment), so ops ÷ max-busy-time projects the bottleneck
// throughput from a co-located run.
func busyCounter(rts []*runtime.Runtime) func() []time.Duration {
	return func() []time.Duration {
		out := make([]time.Duration, len(rts))
		for i, rt := range rts {
			out[i] = rt.Busy()
		}
		return out
	}
}

func authCounter(auths []*auth.HMACAuth, clientSides []*auth.ReplicaSide) func() uint64 {
	return func() uint64 {
		var sum uint64
		for _, a := range auths {
			sum += a.Stats().TagOps.Load() + a.Stats().VerifyOps.Load()
		}
		for _, c := range clientSides {
			sum += c.Stats().TagOps.Load() + c.Stats().VerifyOps.Load()
		}
		return sum
	}
}

const (
	replicaMaster = "replica-master"
	clientMaster  = "client-master"
)

func buildNeo(sys *System, o Options, fab transport.Fabric, f int) {
	variant := wire.AuthHMAC
	if o.Protocol == NeoPK {
		variant = wire.AuthPK
	}
	byz := o.Protocol == NeoBN
	svc := configsvc.New(variant, []byte("aom-master"))
	sys.Svc = svc
	var swRegs []*metrics.Registry
	for i := 0; i < 2; i++ {
		id := switchBase + transport.NodeID(i)
		swReg := metrics.NewRegistry()
		swTr := sys.newTracer(o, fmt.Sprintf("sequencer-%d", i), swReg)
		sw := sequencer.New(tracing.WrapConn(join(fab, id), swTr), sequencer.Options{
			Variant:  variant,
			PKSeed:   []byte{byte(i + 1)},
			SignRate: o.SignRate,
			Metrics:  swReg,
			Tracer:   swTr,
		})
		swRegs = append(swRegs, swReg)
		h := configsvc.SwitchHandle{ID: id, SW: sw}
		sys.Switches = append(sys.Switches, h)
		svc.RegisterSwitch(h)
	}
	mem := members(o.N)
	if _, err := svc.CreateGroup(1, mem); err != nil {
		panic(err)
	}
	conns := make([]*countingConn, o.N)
	rconns := make([]transport.Conn, o.N)
	trs := make([]*tracing.Tracer, o.N)
	rts := make([]*runtime.Runtime, o.N)
	auths := make([]*auth.HMACAuth, o.N)
	csides := make([]*auth.ReplicaSide, o.N)
	replicas := make([]*neobft.Replica, o.N)
	regs := newRegistries(sys, o.N)
	sys.Metrics = append(sys.Metrics, swRegs...)
	for i := 0; i < o.N; i++ {
		conns[i] = joinCounting(fab, mem[i])
		trs[i] = sys.newTracer(o, fmt.Sprintf("replica-%d", i), regs[i])
		rconns[i] = tracing.WrapConn(conns[i], trs[i])
		rts[i] = newRuntime(rconns[i], o.VerifyWorkers, regs[i], trs[i])
		auths[i] = auth.NewHMACAuth([]byte(replicaMaster), i, o.N)
		csides[i] = auth.NewReplicaSide([]byte(clientMaster), i)
		replicas[i] = neobft.New(neobft.Config{
			Self: i, N: o.N, F: f,
			Members:           mem,
			Group:             1,
			Conn:              rconns[i],
			Auth:              auths[i],
			ClientAuth:        csides[i],
			App:               o.AppFactory(i),
			Variant:           variant,
			Byzantine:         byz,
			SyncInterval:      o.CheckpointInterval,
			ConfirmFlushEvery: o.ConfirmFlushEvery,
			ConfirmBatch:      16,
			Svc:               svc,
			Runtime:           rts[i],
			Metrics:           regs[i],
		})
		sys.Replicas = append(sys.Replicas, replicas[i])
	}
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaBusy = busyCounter(rts)
	sys.PerReplicaPkts = pktCounter(conns)
	sys.AuthOps = authCounter(auths, csides)
	sys.Committed = func() uint64 { return replicas[0].Committed() }
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		cl, err := neobft.NewClient(neobft.ClientOptions{
			Conn:     tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			Master:   []byte(clientMaster),
			N:        o.N,
			F:        f,
			Replicas: mem,
			Group:    1,
			Svc:      svc,
			Tune:     clientTuning(sys, o),
		})
		if err != nil {
			panic(err)
		}
		return traceInvoker(cl, ctr)
	}
	sys.Close = func() {
		for _, r := range replicas {
			r.Close()
		}
		fab.Close()
	}
	sys.CrashSequencer = func() bool {
		v, err := svc.View(1)
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
	lc := installLifecycle(sys, fab, o, mem, conns, rconns, trs, rts, regs)
	lc.persist = func(i int) []byte { return replicas[i].Persist() }
	lc.stop = func(i int) { replicas[i].Close() }
	lc.executed = func(i int) uint64 { return replicas[i].Committed() }
	// The op counter resets on restart; the speculative-execution slot is
	// restored from the checkpoint, so catch-up is measured against it.
	lc.progress = func(i int) uint64 { return replicas[i].Executed() }
	lc.boot = func(i int, restore []byte) {
		replicas[i] = neobft.New(neobft.Config{
			Self: i, N: o.N, F: f,
			Members:           mem,
			Group:             1,
			Conn:              rconns[i],
			Auth:              auths[i],
			ClientAuth:        csides[i],
			App:               o.AppFactory(i),
			Variant:           variant,
			Byzantine:         byz,
			SyncInterval:      o.CheckpointInterval,
			ConfirmFlushEvery: o.ConfirmFlushEvery,
			ConfirmBatch:      16,
			Svc:               svc,
			Runtime:           lc.rts[i],
			Metrics:           regs[i],
			Restore:           restore,
		})
		sys.Replicas[i] = replicas[i]
	}
}

func buildPBFT(sys *System, o Options, fab transport.Fabric, f int) {
	mem := members(o.N)
	conns := make([]*countingConn, o.N)
	rconns := make([]transport.Conn, o.N)
	trs := make([]*tracing.Tracer, o.N)
	rts := make([]*runtime.Runtime, o.N)
	auths := make([]*auth.HMACAuth, o.N)
	csides := make([]*auth.ReplicaSide, o.N)
	replicas := make([]*pbft.Replica, o.N)
	regs := newRegistries(sys, o.N)
	for i := 0; i < o.N; i++ {
		conns[i] = joinCounting(fab, mem[i])
		trs[i] = sys.newTracer(o, fmt.Sprintf("replica-%d", i), regs[i])
		rconns[i] = tracing.WrapConn(conns[i], trs[i])
		rts[i] = newRuntime(rconns[i], o.VerifyWorkers, regs[i], trs[i])
		auths[i] = auth.NewHMACAuth([]byte(replicaMaster), i, o.N)
		csides[i] = auth.NewReplicaSide([]byte(clientMaster), i)
		replicas[i] = pbft.New(pbft.Config{
			Self: i, N: o.N, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Runtime:            rts[i],
			Metrics:            regs[i],
		})
		sys.Replicas = append(sys.Replicas, replicas[i])
	}
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaBusy = busyCounter(rts)
	sys.PerReplicaPkts = pktCounter(conns)
	sys.AuthOps = authCounter(auths, csides)
	sys.Committed = func() uint64 { return replicas[0].Executed() }
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		return traceInvoker(pbft.NewClient(
			tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			[]byte(clientMaster), o.N, f, mem, clientTuning(sys, o)), ctr)
	}
	sys.Close = func() {
		for _, r := range replicas {
			r.Close()
		}
		fab.Close()
	}
	lc := installLifecycle(sys, fab, o, mem, conns, rconns, trs, rts, regs)
	lc.persist = func(i int) []byte { return replicas[i].Persist() }
	lc.stop = func(i int) { replicas[i].Close() }
	lc.executed = func(i int) uint64 { return replicas[i].Executed() }
	lc.boot = func(i int, restore []byte) {
		replicas[i] = pbft.New(pbft.Config{
			Self: i, N: o.N, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Runtime:            lc.rts[i],
			Metrics:            regs[i],
			Restore:            restore,
		})
		sys.Replicas[i] = replicas[i]
	}
}

func buildZyzzyva(sys *System, o Options, fab transport.Fabric, f int) {
	mem := members(o.N)
	conns := make([]*countingConn, o.N)
	rconns := make([]transport.Conn, o.N)
	trs := make([]*tracing.Tracer, o.N)
	rts := make([]*runtime.Runtime, o.N)
	auths := make([]*auth.HMACAuth, o.N)
	csides := make([]*auth.ReplicaSide, o.N)
	replicas := make([]*zyzzyva.Replica, o.N)
	regs := newRegistries(sys, o.N)
	for i := 0; i < o.N; i++ {
		conns[i] = joinCounting(fab, mem[i])
		trs[i] = sys.newTracer(o, fmt.Sprintf("replica-%d", i), regs[i])
		rconns[i] = tracing.WrapConn(conns[i], trs[i])
		rts[i] = newRuntime(rconns[i], o.VerifyWorkers, regs[i], trs[i])
		auths[i] = auth.NewHMACAuth([]byte(replicaMaster), i, o.N)
		csides[i] = auth.NewReplicaSide([]byte(clientMaster), i)
		replicas[i] = zyzzyva.New(zyzzyva.Config{
			Self: i, N: o.N, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Silent:             o.Protocol == ZyzzyvaF && i == o.N-1,
			Runtime:            rts[i],
			Metrics:            regs[i],
		})
		sys.Replicas = append(sys.Replicas, replicas[i])
	}
	// On a shared single core the 4th speculative response can lag; a
	// larger speculative timeout keeps fault-free Zyzzyva on its fast
	// path while still penalizing Zyzzyva-F heavily per operation.
	specTimeout := 20 * time.Millisecond
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaBusy = busyCounter(rts)
	sys.PerReplicaPkts = pktCounter(conns)
	sys.AuthOps = authCounter(auths, csides)
	sys.Committed = func() uint64 { return replicas[0].Executed() }
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		return traceInvoker(zyzzyva.NewClient(
			tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			[]byte(clientMaster), o.N, f, mem, specTimeout, clientTuning(sys, o)), ctr)
	}
	sys.Close = func() {
		for _, r := range replicas {
			r.Close()
		}
		fab.Close()
	}
	lc := installLifecycle(sys, fab, o, mem, conns, rconns, trs, rts, regs)
	lc.persist = func(i int) []byte { return replicas[i].Persist() }
	lc.stop = func(i int) { replicas[i].Close() }
	lc.executed = func(i int) uint64 { return replicas[i].Executed() }
	lc.boot = func(i int, restore []byte) {
		replicas[i] = zyzzyva.New(zyzzyva.Config{
			Self: i, N: o.N, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Silent:             o.Protocol == ZyzzyvaF && i == o.N-1,
			Runtime:            lc.rts[i],
			Metrics:            regs[i],
			Restore:            restore,
		})
		sys.Replicas[i] = replicas[i]
	}
}

func buildHotStuff(sys *System, o Options, fab transport.Fabric, f int) {
	mem := members(o.N)
	conns := make([]*countingConn, o.N)
	rconns := make([]transport.Conn, o.N)
	trs := make([]*tracing.Tracer, o.N)
	rts := make([]*runtime.Runtime, o.N)
	auths := make([]*auth.HMACAuth, o.N)
	csides := make([]*auth.ReplicaSide, o.N)
	replicas := make([]*hotstuff.Replica, o.N)
	regs := newRegistries(sys, o.N)
	for i := 0; i < o.N; i++ {
		conns[i] = joinCounting(fab, mem[i])
		trs[i] = sys.newTracer(o, fmt.Sprintf("replica-%d", i), regs[i])
		rconns[i] = tracing.WrapConn(conns[i], trs[i])
		rts[i] = newRuntime(rconns[i], o.VerifyWorkers, regs[i], trs[i])
		auths[i] = auth.NewHMACAuth([]byte(replicaMaster), i, o.N)
		csides[i] = auth.NewReplicaSide([]byte(clientMaster), i)
		replicas[i] = hotstuff.New(hotstuff.Config{
			Self: i, N: o.N, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Runtime:            rts[i],
			Metrics:            regs[i],
		})
		sys.Replicas = append(sys.Replicas, replicas[i])
	}
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaBusy = busyCounter(rts)
	sys.PerReplicaPkts = pktCounter(conns)
	sys.AuthOps = authCounter(auths, csides)
	sys.Committed = func() uint64 { return replicas[0].Executed() }
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		return traceInvoker(hotstuff.NewClient(
			tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			[]byte(clientMaster), o.N, f, mem, clientTuning(sys, o)), ctr)
	}
	sys.Close = func() {
		for _, r := range replicas {
			r.Close()
		}
		fab.Close()
	}
	lc := installLifecycle(sys, fab, o, mem, conns, rconns, trs, rts, regs)
	lc.persist = func(i int) []byte { return replicas[i].Persist() }
	lc.stop = func(i int) { replicas[i].Close() }
	lc.executed = func(i int) uint64 { return replicas[i].Executed() }
	lc.boot = func(i int, restore []byte) {
		replicas[i] = hotstuff.New(hotstuff.Config{
			Self: i, N: o.N, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Runtime:            lc.rts[i],
			Metrics:            regs[i],
			Restore:            restore,
		})
		sys.Replicas[i] = replicas[i]
	}
}

func buildMinBFT(sys *System, o Options, fab transport.Fabric, f int) {
	n := 2*f + 1 // trusted components reduce the replication factor
	mem := members(n)
	conns := make([]*countingConn, n)
	rconns := make([]transport.Conn, n)
	trs := make([]*tracing.Tracer, n)
	rts := make([]*runtime.Runtime, n)
	auths := make([]*auth.HMACAuth, n)
	csides := make([]*auth.ReplicaSide, n)
	usigs := make([]*usig.USIG, n)
	replicas := make([]*minbft.Replica, n)
	regs := newRegistries(sys, n)
	for i := 0; i < n; i++ {
		conns[i] = joinCounting(fab, mem[i])
		trs[i] = sys.newTracer(o, fmt.Sprintf("replica-%d", i), regs[i])
		rconns[i] = tracing.WrapConn(conns[i], trs[i])
		rts[i] = newRuntime(rconns[i], o.VerifyWorkers, regs[i], trs[i])
		auths[i] = auth.NewHMACAuth([]byte(replicaMaster), i, n)
		csides[i] = auth.NewReplicaSide([]byte(clientMaster), i)
		usigs[i] = usig.New(uint32(i), []byte("sgx-master")).WithEnclaveDelay(o.USIGDelay)
		replicas[i] = minbft.New(minbft.Config{
			Self: i, N: n, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			USIG:               usigs[i],
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Runtime:            rts[i],
			Metrics:            regs[i],
		})
		sys.Replicas = append(sys.Replicas, replicas[i])
	}
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaBusy = busyCounter(rts)
	sys.PerReplicaPkts = pktCounter(conns)
	baseAuth := authCounter(auths, csides)
	sys.AuthOps = func() uint64 {
		// UIs are MinBFT's authenticators: count trusted-component ops too.
		sum := baseAuth()
		for _, u := range usigs {
			sum += u.Ops()
		}
		return sum
	}
	sys.Committed = func() uint64 { return replicas[0].Executed() }
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		return traceInvoker(minbft.NewClient(
			tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			[]byte(clientMaster), n, f, mem, clientTuning(sys, o)), ctr)
	}
	sys.Close = func() {
		for _, r := range replicas {
			r.Close()
		}
		fab.Close()
	}
	lc := installLifecycle(sys, fab, o, mem, conns, rconns, trs, rts, regs)
	lc.persist = func(i int) []byte { return replicas[i].Persist() }
	lc.stop = func(i int) { replicas[i].Close() }
	lc.executed = func(i int) uint64 { return replicas[i].Executed() }
	lc.boot = func(i int, restore []byte) {
		// The USIG instance survives the restart: it models a trusted
		// counter in an enclave, whose monotonic state outlives crashes
		// of the untrusted replica process around it.
		replicas[i] = minbft.New(minbft.Config{
			Self: i, N: n, F: f,
			Members:            mem,
			Conn:               rconns[i],
			Auth:               auths[i],
			ClientAuth:         csides[i],
			App:                o.AppFactory(i),
			USIG:               usigs[i],
			BatchSize:          o.BatchSize,
			BatchBytes:         o.BatchBytes,
			BatchLinger:        o.BatchLinger,
			BatchAdaptive:      o.BatchAdaptive,
			CheckpointInterval: o.CheckpointInterval,
			Runtime:            lc.rts[i],
			Metrics:            regs[i],
			Restore:            restore,
		})
		sys.Replicas[i] = replicas[i]
	}
}

func buildUnreplicated(sys *System, o Options, fab transport.Fabric) {
	mem := members(1)
	conns := []*countingConn{joinCounting(fab, mem[0])}
	regs := newRegistries(sys, 1)
	trs := []*tracing.Tracer{sys.newTracer(o, "replica-0", regs[0])}
	rconns := []transport.Conn{tracing.WrapConn(conns[0], trs[0])}
	rts := []*runtime.Runtime{newRuntime(rconns[0], o.VerifyWorkers, regs[0], trs[0])}
	cside := auth.NewReplicaSide([]byte(clientMaster), 0)
	servers := []*unreplicated.Server{unreplicated.New(unreplicated.Config{
		Conn: rconns[0], App: o.AppFactory(0), ClientAuth: cside, Runtime: rts[0],
		CheckpointInterval: o.CheckpointInterval,
		Metrics:            regs[0],
	})}
	sys.Replicas = append(sys.Replicas, servers[0])
	sys.PerReplicaMsgs = msgCounter(conns)
	sys.PerReplicaBusy = busyCounter(rts)
	sys.PerReplicaPkts = pktCounter(conns)
	sys.AuthOps = authCounter(nil, []*auth.ReplicaSide{cside})
	sys.Committed = servers[0].Ops
	sys.NewClient = func(id int) Invoker {
		ctr := sys.newTracer(o, fmt.Sprintf("client-%d", id), sys.clientReg)
		return traceInvoker(unreplicated.NewClient(
			tracing.WrapConn(join(fab, clientBase+transport.NodeID(id)), ctr),
			1, []byte(clientMaster), clientTuning(sys, o)), ctr)
	}
	sys.Close = func() {
		servers[0].Close()
		fab.Close()
	}
	lc := installLifecycle(sys, fab, o, mem, conns, rconns, trs, rts, regs)
	lc.persist = func(i int) []byte { return servers[i].Persist() }
	lc.stop = func(i int) { servers[i].Close() }
	lc.executed = func(i int) uint64 { return servers[i].Ops() }
	lc.boot = func(i int, restore []byte) {
		servers[i] = unreplicated.New(unreplicated.Config{
			Conn: rconns[i], App: o.AppFactory(i), ClientAuth: cside, Runtime: lc.rts[i],
			CheckpointInterval: o.CheckpointInterval,
			Metrics:            regs[i],
			Restore:            restore,
		})
		sys.Replicas[i] = servers[i]
	}
}
