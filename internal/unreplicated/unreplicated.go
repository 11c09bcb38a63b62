// Package unreplicated implements the non-fault-tolerant baseline used in
// Figs 7 and 10 of the paper: a single server executing client operations
// directly. It provides the upper bound against which all replication
// protocols are compared.
package unreplicated

import (
	"neobft/internal/metrics"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Config configures an unreplicated server; the membership fields of
// replica.Config (Self, N, F, Members, Auth) are unused.
//
// CheckpointInterval is the number of operations between checkpoints
// (default 128). With a single server every checkpoint is trivially
// stable: the log truncates immediately, so the window never exceeds one
// interval.
//
// Restore boots the server from a Persist() blob: the executed-operation
// count plus state snapshot. With no peers there is nothing to catch up
// from — operations past the blob are simply lost, which is exactly the
// baseline's (lack of a) fault model.
type Config struct {
	replica.Config
}

// Server is the unreplicated service endpoint.
type Server struct {
	*replica.Core
	cfg Config

	// log records executed operation digests in the live window; the
	// single-vote checkpoint engine stabilizes and truncates it every
	// CheckpointInterval operations.
	log  seqlog.Log[[32]byte]
	ckpt *seqlog.Engine

	// metrics (nil-safe no-ops when unconfigured)
	mCkpt      *metrics.Counter
	mTruncated *metrics.Counter
}

// New creates and starts an unreplicated server.
func New(cfg Config) *Server {
	core := replica.NewCore(&cfg.Config, 128, nil)
	s := &Server{
		Core:       core,
		cfg:        cfg,
		ckpt:       seqlog.NewEngine(1),
		mCkpt:      cfg.Metrics.Counter("proto_checkpoints_total"),
		mTruncated: cfg.Metrics.Counter("proto_truncated_slots_total"),
	}
	if cfg.Restore != nil {
		s.restoreFromPersist(cfg.Restore)
	}
	s.Runtime().Start(s)
	return s
}

// Persist captures the server's durable recovery state: the operation
// count and a state snapshot, frozen on the loop and encoded off it.
func (s *Server) Persist() []byte {
	var ops uint64
	var state replication.Frozen
	s.Runtime().Call(func() { ops, state = s.Executed(), s.Capture() })
	w := wire.NewWriter(32 + state.Size())
	w.U64(ops)
	w.VarAppend(state.AppendTo)
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
	if s.InstallSnapshot(snap) != nil {
		return
	}
	s.SetExecuted(ops)
	s.log.Reset(ops)
	s.SetWindow(s.log.Low(), s.log.High())
}

// LowWatermark returns the log's low watermark (last checkpoint).
func (s *Server) LowWatermark() (low uint64) {
	s.Runtime().Call(func() { low = s.log.Low() })
	return low
}

// HighWatermark returns the highest retained log slot.
func (s *Server) HighWatermark() (high uint64) {
	s.Runtime().Call(func() { high = s.log.High() })
	return high
}

type evRequest struct{ req *replication.Request }

// VerifyPacket implements runtime.Handler: decode + client MAC off-loop.
func (s *Server) VerifyPacket(from transport.NodeID, pkt []byte) runtime.Event {
	if len(pkt) == 0 || pkt[0] != replication.KindRequest {
		return nil
	}
	req := s.VerifyRequest(pkt[1:])
	if req == nil {
		return nil
	}
	s.CountMsg(pkt)
	return evRequest{req: req}
}

// ApplyEvent implements runtime.Handler: execute on the loop.
func (s *Server) ApplyEvent(from transport.NodeID, ev runtime.Event) {
	req := ev.(evRequest).req
	if rep, _ := s.ExecuteReply(req, replication.Reply{}); rep == nil {
		return
	}
	slot := s.log.Append(replication.RequestDigest(req))
	s.SetWindow(s.log.Low(), s.log.High())
	if slot%uint64(s.cfg.CheckpointInterval) == 0 {
		s.checkpoint(slot)
	}
}

// checkpoint stabilizes the log at slot: with no peers, the
// server's own vote is the full quorum, so the certificate forms
// immediately and the window truncates on the spot. Nothing leaves the
// server, so the vote is the bare state digest.
func (s *Server) checkpoint(slot uint64) {
	stateD := s.Capture().Digest()
	s.mCkpt.Inc()
	if cert := s.ckpt.Add(slot, 0, stateD, nil); cert != nil {
		dropped := s.log.TruncateTo(cert.Slot)
		s.mTruncated.Add(uint64(dropped))
		s.SetWindow(s.log.Low(), s.log.High())
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
