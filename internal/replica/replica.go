// Package replica is the scaffolding every protocol replica in this
// repository shares, so PBFT, Zyzzyva, HotStuff, MinBFT, Unreplicated and
// NeoBFT are measured on identical plumbing and differ only in their
// protocol logic. A protocol's Config embeds Config; its replica embeds
// the *Core built from it, which owns the runtime, the registry and the
// series every replica exports, the client table, client admission and
// the execute-and-reply step. The four leader protocols also build one
// Queue (queue.go) in front of their batcher.
package replica

import (
	"sync/atomic"

	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/transport"
)

// Config is the part of a replica's configuration every protocol shares.
type Config struct {
	// Self is this replica's index in Members; N replicas tolerate F
	// faults. A single server (Unreplicated) leaves them zero.
	Self, N, F int
	// Members are the replica node IDs in index order.
	Members []transport.NodeID
	// Conn is the replica's network attachment.
	Conn transport.Conn
	// Auth authenticates replica↔replica messages.
	Auth auth.Authenticator
	// ClientAuth verifies client request MACs and tags replies.
	ClientAuth *auth.ReplicaSide
	// App is the replicated state machine.
	App replication.App
	// CheckpointInterval is the checkpoint period in slots (zero keeps
	// the protocol's default): stable checkpoints, NeoBFT sync points,
	// HotStuff compaction.
	CheckpointInterval int
	// Runtime hosts the replica's event loop and verification workers.
	// If nil, NewCore creates a default runtime over Conn.
	Runtime *runtime.Runtime
	// Metrics is the replica's shared registry (runtime stages plus
	// proto_* series). If nil, the runtime's registry is used.
	Metrics *metrics.Registry
	// Restore, if non-nil, boots the replica from a Persist() blob
	// captured before a crash.
	Restore []byte
}

// Core is the protocol-independent half of a replica. Its loop-side
// methods (Admit, Execute, ExecuteReply) run on the runtime loop, like
// the rest of the replica's state; other goroutines reach that state
// through Runtime().Call.
type Core struct {
	cfg Config
	rt  *runtime.Runtime
	reg *metrics.Registry

	// Table remembers each client's latest executed request and reply.
	Table *replication.ClientTable
	// AuthFail counts authenticators that failed to verify.
	AuthFail *metrics.Counter

	commits   *metrics.Counter
	low, high *metrics.Gauge
	msgs      [256]*metrics.Counter // proto_msg_<kind>_total by kind byte
	ops       atomic.Uint64
}

// NewCore fills cfg's defaults — a runtime over Conn, the runtime's
// registry, CheckpointInterval = interval — and registers the series
// every replica exports: proto_commits_total, proto_auth_fail_total, the
// log watermark gauges, and one proto_msg_<name>_total per entry of kinds
// plus client requests.
func NewCore(cfg *Config, interval int, kinds map[uint8]string) *Core {
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = interval
	}
	if cfg.Runtime == nil {
		cfg.Runtime = runtime.New(runtime.Config{Conn: cfg.Conn, Metrics: cfg.Metrics})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Runtime.Metrics()
	}
	reg := cfg.Metrics
	c := &Core{
		cfg:      *cfg,
		rt:       cfg.Runtime,
		reg:      reg,
		Table:    replication.NewClientTable(),
		AuthFail: reg.Counter("proto_auth_fail_total"),
		commits:  reg.Counter("proto_commits_total"),
		low:      reg.Gauge("proto_log_low_watermark"),
		high:     reg.Gauge("proto_log_high_watermark"),
	}
	c.msgs[replication.KindRequest] = reg.Counter("proto_msg_client_request_total")
	for k, name := range kinds {
		c.msgs[k] = reg.Counter("proto_msg_" + name + "_total")
	}
	return c
}

// Runtime returns the replica's runtime (for stats and draining).
func (c *Core) Runtime() *runtime.Runtime { return c.rt }

// Metrics returns the replica's shared metrics registry.
func (c *Core) Metrics() *metrics.Registry { return c.reg }

// Close stops the replica and its runtime.
func (c *Core) Close() { c.rt.Close() }

// Trace returns the registry's flight recorder. The registry creates its
// 160 KB ring on first use, so a replica with no rare-path events to
// record (Unreplicated) never pays for it.
func (c *Core) Trace() *metrics.Recorder { return c.reg.Recorder() }

// Executed returns the number of client operations this incarnation has
// executed (restored replicas count from their checkpoint's figure where
// the protocol persists one).
func (c *Core) Executed() uint64 { return c.ops.Load() }

// SetExecuted resets the executed-operation count, for a restore.
func (c *Core) SetExecuted(n uint64) { c.ops.Store(n) }

// Send sends pkt to one node.
func (c *Core) Send(to transport.NodeID, pkt []byte) { c.cfg.Conn.Send(to, pkt) }

// Broadcast sends pkt to every other replica.
func (c *Core) Broadcast(pkt []byte) {
	for i, m := range c.cfg.Members {
		if i != c.cfg.Self {
			c.cfg.Conn.Send(m, pkt)
		}
	}
}

// CountMsg counts a received packet by its kind byte and reports whether
// there is one (false for an empty packet).
func (c *Core) CountMsg(pkt []byte) bool {
	if len(pkt) == 0 {
		return false
	}
	c.msgs[pkt[0]].Inc()
	return true
}

// SetWindow publishes the log's low and high watermarks.
func (c *Core) SetWindow(low, high uint64) {
	c.low.Set(int64(low))
	c.high.Set(int64(high))
}

// VerifyClient checks req's client MAC, counting a failure.
func (c *Core) VerifyClient(req *replication.Request) bool {
	var body [256]byte // a larger body grows onto the heap
	if c.cfg.ClientAuth.VerifyClient(int64(req.Client), req.AppendSignedBody(body[:0]), req.Auth) {
		return true
	}
	c.AuthFail.Inc()
	return false
}

// VerifyRequest decodes a client request body (the packet after its kind
// byte) and checks its MAC; nil means drop it. It reads no loop state, so
// verification workers call it.
func (c *Core) VerifyRequest(body []byte) *replication.Request {
	req, err := replication.UnmarshalRequest(body)
	if err != nil || !c.VerifyClient(req) {
		return nil
	}
	return req
}

// Admit reports whether req is new to the client table. A retransmission
// of the client's latest executed request is answered from the cached
// reply; older requests are dropped.
func (c *Core) Admit(req *replication.Request) bool {
	fresh, cached := c.Table.Check(req.Client, req.ReqID)
	if !fresh && cached != nil {
		c.cfg.Conn.Send(req.Client, cached.Marshal())
	}
	return fresh
}

// Execute runs an admitted req against the App and records the reply in
// the client table: rep supplies the protocol's header fields (view,
// slot, log hash, speculative flag), Execute fills in the rest and the
// client MAC. It returns the reply, or nil when Admit turned req away,
// and the App's undo function. The caller sends the reply.
func (c *Core) Execute(req *replication.Request, rep replication.Reply) (*replication.Reply, func()) {
	if !c.Admit(req) {
		return nil, nil
	}
	result, undo := c.cfg.App.Execute(req.Op)
	c.ops.Add(1)
	c.commits.Inc()
	rep.Replica = uint32(c.cfg.Self)
	rep.ReqID = req.ReqID
	rep.Result = result
	var body [256]byte // a larger body grows onto the heap
	rep.Auth = c.cfg.ClientAuth.TagFor(int64(req.Client), rep.AppendSignedBody(body[:0]))
	out := &rep
	c.Table.Store(req.Client, req.ReqID, out)
	return out, undo
}

// Capture freezes the replica's state, the App's and the client
// table's, for a checkpoint or a Persist blob. It produces no snapshot
// bytes: the view is encoded only when it is served or persisted.
func (c *Core) Capture() replication.Frozen { return replication.Capture(c.cfg.App, c.Table) }

// StateDigest is the digest of a Capture's snapshot bytes received over
// the network or read from disk.
func (c *Core) StateDigest(snap []byte) ([32]byte, error) {
	return replication.BundleDigest(c.cfg.App, snap)
}

// InstallSnapshot replaces the App's state and the client table with a
// Capture's snapshot bytes.
func (c *Core) InstallSnapshot(snap []byte) error {
	return replication.InstallSnapshot(c.cfg.App, c.Table, snap, uint32(c.cfg.Self), c.cfg.ClientAuth)
}

// ExecuteReply is Execute followed by sending the reply to the client.
func (c *Core) ExecuteReply(req *replication.Request, rep replication.Reply) (*replication.Reply, func()) {
	out, undo := c.Execute(req, rep)
	if out != nil {
		c.cfg.Conn.Send(req.Client, out.Marshal())
	}
	return out, undo
}

// Read runs f on c's runtime loop and returns its result: how an
// accessor called from another goroutine reads loop-owned state.
func Read[T any](c *Core, f func() T) (v T) {
	c.rt.Call(func() { v = f() })
	return v
}
