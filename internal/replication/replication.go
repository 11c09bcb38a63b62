// Package replication holds the state-machine-replication framework
// shared by every protocol in this repository (NeoBFT and all baselines):
// the application interface, client requests and replies on the wire, the
// at-most-once client table, the hash-chained log, quorum counting and
// request batching. Each protocol package builds its replica and client
// on these pieces so that performance comparisons measure protocol
// differences, not implementation differences.
package replication

import (
	"crypto/sha256"

	"neobft/internal/crypto/auth"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// App is a deterministic replicated state machine. Execute applies one
// operation and returns its result plus an undo closure that restores the
// state as it was before the operation. Protocols that never roll back
// (all baselines) simply discard the undo; NeoBFT uses it to roll back
// speculative execution (§5.2). A nil undo is permitted for operations
// that are trivially idempotent to re-apply in reverse (e.g. reads).
type App interface {
	Execute(op []byte) (result []byte, undo func())
}

// Snapshotter is the state-transfer extension of App: applications that
// implement it can be checkpointed and restored, so a lagging replica
// receives a snapshot plus the log suffix instead of replaying the log
// from slot 1 (§B.2). Snapshot must be deterministic — two replicas with
// identical state return identical bytes — because checkpoint digests
// are computed over it. Restore replaces the application state wholesale
// with the snapshotted one.
//
// The snapshot is written in place: SnapshotSize reports its exact length
// in the current state and AppendSnapshot appends it to a caller's
// buffer, so a checkpoint of a large state is one buffer allocated once,
// not a copy of a copy.
type Snapshotter interface {
	SnapshotSize() int
	AppendSnapshot(buf []byte) []byte
	Restore(data []byte) error
}

// SnapshotSize is app's snapshot length, 0 for an application that does
// not implement Snapshotter.
func SnapshotSize(app App) int {
	if s, ok := app.(Snapshotter); ok {
		return s.SnapshotSize()
	}
	return 0
}

// AppendSnapshot appends app's snapshot to buf; an application that does
// not implement Snapshotter appends nothing.
func AppendSnapshot(app App, buf []byte) []byte {
	if s, ok := app.(Snapshotter); ok {
		return s.AppendSnapshot(buf)
	}
	return buf
}

// CaptureSnapshot bundles the application snapshot with the client table
// into one deterministic byte string — the unit every protocol's
// checkpoint digest covers and state transfer ships. The client table
// must travel with the application state: without it a restored replica
// would re-execute duplicate client requests occupying later log slots
// and diverge. Applications that do not implement Snapshotter contribute
// an empty application section.
func CaptureSnapshot(app App, table *ClientTable) []byte {
	tableB := table.Snapshot()
	w := wire.NewWriter(8 + SnapshotSize(app) + len(tableB))
	w.VarAppend(func(buf []byte) []byte { return AppendSnapshot(app, buf) })
	w.VarBytes(tableB)
	return w.Bytes()
}

var errSnapshotBundle = &wireError{"replication: malformed snapshot bundle"}

type wireError struct{ msg string }

func (e *wireError) Error() string { return e.msg }

// InstallSnapshot restores a CaptureSnapshot bundle into the application
// and client table, then re-stamps the cached replies as replica self's
// (ca MACs them): the bundle carries them canonicalized, and a duplicate
// request must be answered with a reply its client can authenticate.
func InstallSnapshot(app App, table *ClientTable, data []byte, self uint32, ca *auth.ReplicaSide) error {
	rd := wire.NewReader(data)
	appB := rd.VarBytes()
	tableB := rd.VarBytes()
	if rd.Done() != nil {
		return errSnapshotBundle
	}
	if s, ok := app.(Snapshotter); ok {
		if err := s.Restore(appB); err != nil {
			return err
		}
	} else if len(appB) != 0 {
		return errSnapshotBundle
	}
	if err := table.Restore(tableB); err != nil {
		return err
	}
	table.Reauth(self, func(c transport.NodeID, body []byte) []byte {
		return ca.TagFor(int64(c), body)
	})
	return nil
}

// EchoApp is the echo-RPC application used by the paper's protocol-level
// experiments (§6.2): it returns the request payload unchanged.
type EchoApp struct{}

// Execute implements App.
func (EchoApp) Execute(op []byte) ([]byte, func()) { return op, nil }

// SnapshotSize implements Snapshotter: the echo app is stateless.
func (EchoApp) SnapshotSize() int { return 0 }

// AppendSnapshot implements Snapshotter.
func (EchoApp) AppendSnapshot(buf []byte) []byte { return buf }

// Restore implements Snapshotter.
func (EchoApp) Restore(data []byte) error { return nil }

// Message kinds shared by all protocols. Protocol-specific kinds start at
// KindProtocolBase.
const (
	KindRequest uint8 = 1
	KindReply   uint8 = 2
	// KindProtocolBase is the first protocol-private message kind.
	KindProtocolBase uint8 = 16
)

// Request is a client operation submission:
// ⟨REQUEST, op, request-id⟩_σc (§5.3).
type Request struct {
	Client transport.NodeID
	ReqID  uint64
	Op     []byte
	// Auth is the client's MAC vector over the request body (one lane
	// per replica).
	Auth []byte
}

// Marshal encodes the request with its envelope kind.
func (r *Request) Marshal() []byte {
	w := wire.NewWriter(64 + len(r.Op) + len(r.Auth))
	w.U8(KindRequest)
	w.U32(uint32(r.Client))
	w.U64(r.ReqID)
	w.VarBytes(r.Op)
	w.VarBytes(r.Auth)
	return w.Bytes()
}

// SignedBody returns the byte string the client authenticates.
func (r *Request) SignedBody() []byte {
	w := wire.NewWriter(32 + len(r.Op))
	w.U32(uint32(r.Client))
	w.U64(r.ReqID)
	w.VarBytes(r.Op)
	return w.Bytes()
}

// UnmarshalRequest decodes a request (after the kind byte has been
// consumed or at offset 1 of a raw packet).
func UnmarshalRequest(body []byte) (*Request, error) {
	rd := wire.NewReader(body)
	r := &Request{}
	r.Client = transport.NodeID(rd.U32())
	r.ReqID = rd.U64()
	r.Op = append([]byte(nil), rd.VarBytes()...)
	r.Auth = append([]byte(nil), rd.VarBytes()...)
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reply is a replica's response:
// ⟨REPLY, view-id, i, log-slot-num, log-hash, request-id, result⟩_σi (§5.3).
// Baselines leave fields they do not use at zero.
type Reply struct {
	View    uint64
	Replica uint32
	Slot    uint64
	LogHash [32]byte
	ReqID   uint64
	Result  []byte
	// Speculative marks a Zyzzyva-style speculative reply.
	Speculative bool
	// Auth is the replica's MAC to the client.
	Auth []byte
}

// Marshal encodes the reply with its envelope kind.
func (r *Reply) Marshal() []byte {
	w := wire.NewWriter(96 + len(r.Result) + len(r.Auth))
	w.U8(KindReply)
	w.U64(r.View)
	w.U32(r.Replica)
	w.U64(r.Slot)
	w.Bytes32(r.LogHash)
	w.U64(r.ReqID)
	w.Bool(r.Speculative)
	w.VarBytes(r.Result)
	w.VarBytes(r.Auth)
	return w.Bytes()
}

// SignedBody returns the byte string the replica authenticates.
func (r *Reply) SignedBody() []byte {
	w := wire.NewWriter(96 + len(r.Result))
	w.U64(r.View)
	w.U32(r.Replica)
	w.U64(r.Slot)
	w.Bytes32(r.LogHash)
	w.U64(r.ReqID)
	w.Bool(r.Speculative)
	w.VarBytes(r.Result)
	return w.Bytes()
}

// UnmarshalReply decodes a reply body.
func UnmarshalReply(body []byte) (*Reply, error) {
	rd := wire.NewReader(body)
	r := &Reply{}
	r.View = rd.U64()
	r.Replica = rd.U32()
	r.Slot = rd.U64()
	r.LogHash = rd.Bytes32()
	r.ReqID = rd.U64()
	r.Speculative = rd.Bool()
	r.Result = append([]byte(nil), rd.VarBytes()...)
	r.Auth = append([]byte(nil), rd.VarBytes()...)
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// RequestDigest hashes a request for log hashing and certificates.
func RequestDigest(r *Request) [32]byte {
	return sha256.Sum256(r.SignedBody())
}

// ChainHash extends a hash chain: H(prev ‖ entry). Used for the O(1)
// incremental log-hash of §5.3.
func ChainHash(prev [32]byte, entry [32]byte) [32]byte {
	var buf [64]byte
	copy(buf[:32], prev[:])
	copy(buf[32:], entry[:])
	return sha256.Sum256(buf[:])
}
