// Package unreplicated implements the non-fault-tolerant baseline used in
// Figs 7 and 10 of the paper: a single server executing client operations
// directly. It provides the upper bound against which all replication
// protocols are compared.
package unreplicated

import (
	"crypto/sha256"
	"sync"

	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Config configures an unreplicated server.
type Config struct {
	Conn       transport.Conn
	App        replication.App
	ClientAuth *auth.ReplicaSide
	// CheckpointInterval is the number of operations between checkpoints
	// (default 128). With a single server every checkpoint is trivially
	// stable: the log truncates immediately, so the window never exceeds
	// one interval.
	CheckpointInterval int
	// Runtime hosts the server's event loop and verification workers.
	// If nil, New creates a default runtime over Conn.
	Runtime *runtime.Runtime
	// Metrics is the server's shared registry (runtime stages plus
	// proto_* series). If nil, the runtime's registry is used.
	Metrics *metrics.Registry
	// Restore, if non-nil, boots the server from a Persist() blob: the
	// executed-operation count plus state snapshot. With no peers there
	// is nothing to catch up from — operations past the blob are simply
	// lost, which is exactly the baseline's (lack of a) fault model.
	Restore []byte
}

// Server is the unreplicated service endpoint.
type Server struct {
	cfg Config
	rt  *runtime.Runtime

	mu    sync.Mutex
	table *replication.ClientTable
	ops   uint64
	// log records executed operation digests in the live window; the
	// single-vote checkpoint engine stabilizes and truncates it every
	// CheckpointInterval operations.
	log  seqlog.Log[[32]byte]
	ckpt *seqlog.Engine

	// metrics (nil-safe no-ops when unconfigured)
	reg        *metrics.Registry
	mCommits   *metrics.Counter
	mAuthFail  *metrics.Counter
	mMsgReq    *metrics.Counter
	mCkpt      *metrics.Counter
	mTruncated *metrics.Counter
	gLow       *metrics.Gauge
	gHigh      *metrics.Gauge
}

// New creates and starts an unreplicated server.
func New(cfg Config) *Server {
	if cfg.Runtime == nil {
		cfg.Runtime = runtime.New(runtime.Config{Conn: cfg.Conn, Metrics: cfg.Metrics})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Runtime.Metrics()
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 128
	}
	s := &Server{cfg: cfg, rt: cfg.Runtime, table: replication.NewClientTable(),
		ckpt: seqlog.NewEngine(1)}
	reg := cfg.Metrics
	s.reg = reg
	s.mCommits = reg.Counter("proto_commits_total")
	s.mAuthFail = reg.Counter("proto_auth_fail_total")
	s.mMsgReq = reg.Counter("proto_msg_client_request_total")
	s.mCkpt = reg.Counter("proto_checkpoints_total")
	s.mTruncated = reg.Counter("proto_truncated_slots_total")
	s.gLow = reg.Gauge("proto_log_low_watermark")
	s.gHigh = reg.Gauge("proto_log_high_watermark")
	if cfg.Restore != nil {
		s.restoreFromPersist(cfg.Restore)
	}
	s.rt.Start(s)
	return s
}

// Persist captures the server's durable recovery state: the operation
// count and a state snapshot.
func (s *Server) Persist() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := replication.CaptureSnapshot(s.cfg.App, s.table)
	w := wire.NewWriter(32 + len(snap))
	w.U64(s.ops)
	w.VarBytes(snap)
	return w.Bytes()
}

// restoreFromPersist boots from a Persist blob. Called from New before
// the runtime starts.
func (s *Server) restoreFromPersist(blob []byte) {
	rd := wire.NewReader(blob)
	ops := rd.U64()
	snap := append([]byte(nil), rd.VarBytes()...)
	if rd.Done() != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if replication.InstallSnapshot(s.cfg.App, s.table, snap, 0, s.cfg.ClientAuth) != nil {
		return
	}
	s.ops = ops
	s.log.Reset(ops)
	s.gLow.Set(int64(s.log.Low()))
	s.gHigh.Set(int64(s.log.High()))
}

// Metrics returns the server's shared metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// NewServer attaches an unreplicated server to conn with a default
// runtime (compatibility constructor).
func NewServer(conn transport.Conn, app replication.App, clientAuth *auth.ReplicaSide) *Server {
	return New(Config{Conn: conn, App: app, ClientAuth: clientAuth})
}

// Close stops the server's runtime.
func (s *Server) Close() { s.rt.Close() }

// Runtime returns the server's runtime (for stats and draining).
func (s *Server) Runtime() *runtime.Runtime { return s.rt }

// Executed returns the number of executed operations.
func (s *Server) Executed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// LowWatermark returns the log's low watermark (last checkpoint).
func (s *Server) LowWatermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Low()
}

// HighWatermark returns the highest retained log slot.
func (s *Server) HighWatermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.High()
}

type evRequest struct{ req *replication.Request }

// VerifyPacket implements runtime.Handler: decode + client MAC off-loop.
func (s *Server) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if len(pkt) == 0 || pkt[0] != replication.KindRequest {
		return nil
	}
	req, err := replication.UnmarshalRequest(pkt[1:])
	if err != nil {
		return nil
	}
	if !s.cfg.ClientAuth.VerifyClient(int64(req.Client), req.SignedBody(), req.Auth) {
		s.mAuthFail.Inc()
		return nil
	}
	s.mMsgReq.Inc()
	return evRequest{req: req}
}

// ApplyEvent implements runtime.Handler: execute on the loop.
func (s *Server) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	req := ev.(evRequest).req
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh, cached := s.table.Check(req.Client, req.ReqID)
	if !fresh {
		if cached != nil {
			s.cfg.Conn.Send(req.Client, cached.Marshal())
		}
		return
	}
	result, _ := s.cfg.App.Execute(req.Op)
	s.ops++
	s.mCommits.Inc()
	slot := s.log.Append(replication.RequestDigest(req))
	s.gHigh.Set(int64(s.log.High()))
	if slot%uint64(s.cfg.CheckpointInterval) == 0 {
		s.checkpointLocked(slot)
	}
	rep := &replication.Reply{Replica: 0, ReqID: req.ReqID, Result: result}
	rep.Auth = s.cfg.ClientAuth.TagFor(int64(req.Client), rep.SignedBody())
	s.table.Store(req.Client, req.ReqID, rep)
	s.cfg.Conn.Send(req.Client, rep.Marshal())
}

// checkpointLocked stabilizes the log at slot: with no peers, the
// server's own vote is the full quorum, so the certificate forms
// immediately and the window truncates on the spot. Nothing leaves the
// server, so the vote is the bare state digest. Caller holds s.mu.
func (s *Server) checkpointLocked(slot uint64) {
	stateD := sha256.Sum256(replication.CaptureSnapshot(s.cfg.App, s.table))
	s.mCkpt.Inc()
	if cert := s.ckpt.Add(slot, 0, stateD, nil); cert != nil {
		dropped := s.log.TruncateTo(cert.Slot)
		s.mTruncated.Add(uint64(dropped))
		s.gLow.Set(int64(s.log.Low()))
		s.gHigh.Set(int64(s.log.High()))
	}
}

// NewClient builds a client for the unreplicated server.
func NewClient(conn transport.Conn, server transport.NodeID, master []byte, tune replication.Tuning) *replication.Client {
	cfg := replication.ClientConfig{
		Conn: conn, N: 1, F: 0, Quorum: 1,
		Submit: func(req *replication.Request, retry bool) {
			conn.Send(server, req.Marshal())
		},
	}
	tune.Apply(&cfg)
	return replication.NewWiredClient(cfg, master)
}
