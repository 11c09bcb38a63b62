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
	"encoding/binary"

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
// from slot 1 (§B.2).
//
// A checkpoint never serialises the state on the replica's loop. Freeze
// hands it a read-only view of the current state whose digest the
// application keeps current as it executes, so a capture costs what
// changed since the last one; the view's bytes are produced only when a
// checkpoint is served or persisted, on whatever goroutine does that.
// The snapshot bytes must be deterministic — two replicas with identical
// state produce identical bytes and digests — because checkpoint votes
// are cast over the digest.
type Snapshotter interface {
	// Freeze returns a view of the current state that later Execute,
	// undo and Restore calls leave as it is.
	Freeze() Frozen
	// Restore replaces the application state wholesale with a
	// snapshot's.
	Restore(data []byte) error
	// Digest computes the digest of snapshot bytes received over the
	// network or read from disk: the Digest of the view Freeze returns
	// in the state Restore(data) builds. It touches no state.
	Digest(data []byte) ([32]byte, error)
	// Patch returns the snapshot of the view a delta was taken from,
	// given the snapshot of the view it was taken against
	// (cur.AppendDelta(nil, since) applied to since's AppendTo bytes).
	// Deltas are read back from disk, so Patch refuses malformed ones.
	// It touches no state.
	Patch(snapshot, delta []byte) ([]byte, error)
}

// Frozen is a state captured by Freeze. It never changes, so it may be
// encoded on any goroutine while the application executes on.
type Frozen interface {
	// Digest is the state digest checkpoint votes bind.
	Digest() [32]byte
	// Size is the exact length of the snapshot AppendTo writes.
	Size() int
	// AppendTo appends the snapshot bytes to buf.
	AppendTo(buf []byte) []byte
	// AppendDelta appends the changes from since, an earlier view of the
	// same application, to this one, in the encoding the Snapshotter's
	// Patch reads, and reports false (buf unchanged) when it cannot
	// describe itself that way. Its cost should grow with what changed
	// between the views, not with the state.
	AppendDelta(buf []byte, since Frozen) ([]byte, bool)
}

// AsSnapshotter returns app's Snapshotter. An application without state
// transfer snapshots like EchoApp: an empty state with a constant digest.
func AsSnapshotter(app App) Snapshotter {
	if s, ok := app.(Snapshotter); ok {
		return s
	}
	return EchoApp{}
}

// bundleDomain separates state digests from every other hash.
const bundleDomain = "neobft-state-v1"

// bundle is a replica's frozen state: the application's view plus the
// client table, which must travel with it: without the table a restored
// replica would re-execute duplicate client requests occupying later log
// slots and diverge. Its bytes are varbytes app | varbytes table.
type bundle struct {
	app    Frozen
	table  []byte
	digest [32]byte
}

// Capture freezes the application and encodes the client table: the
// state every protocol's checkpoint digest covers and state transfer
// ships. Its digest is H(domain | app digest | H(table bytes)).
func Capture(app App, table *ClientTable) Frozen {
	b := &bundle{app: AsSnapshotter(app).Freeze(), table: table.Snapshot()}
	b.digest = bundleDigest(b.app.Digest(), b.table)
	return b
}

func bundleDigest(appD [32]byte, table []byte) [32]byte {
	tableD := sha256.Sum256(table)
	buf := make([]byte, 0, len(bundleDomain)+64)
	buf = append(buf, bundleDomain...)
	buf = append(buf, appD[:]...)
	buf = append(buf, tableD[:]...)
	return sha256.Sum256(buf)
}

func (b *bundle) Digest() [32]byte { return b.digest }

func (b *bundle) Size() int { return 8 + b.app.Size() + len(b.table) }

func (b *bundle) AppendTo(buf []byte) []byte {
	w := wire.AppendTo(wire.Grow(buf, b.Size()))
	w.VarAppend(b.app.AppendTo)
	w.VarBytes(b.table)
	return w.Bytes()
}

// AppendDelta writes varbytes app delta | varbytes table: the client
// table is small and travels whole.
func (b *bundle) AppendDelta(buf []byte, since Frozen) ([]byte, bool) {
	s, ok := since.(*bundle)
	w := wire.AppendTo(buf)
	if !ok || !w.VarAppendIf(func(buf []byte) ([]byte, bool) { return b.app.AppendDelta(buf, s.app) }) {
		return buf, false
	}
	w.VarBytes(b.table)
	return w.Bytes(), true
}

// PatchBundle applies a bundle's AppendDelta bytes to the Capture bundle
// snapshot it was taken against, with app's Patch, and returns the
// bundle snapshot of the newer view.
func PatchBundle(app App, snapshot, delta []byte) ([]byte, error) {
	appB, _, err := splitBundle(snapshot)
	if err != nil {
		return nil, err
	}
	appD, tableB, err := splitBundle(delta)
	if err != nil {
		return nil, err
	}
	appB, err = AsSnapshotter(app).Patch(appB, appD)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(8 + len(appB) + len(tableB))
	w.VarBytes(appB)
	w.VarBytes(tableB)
	return w.Bytes(), nil
}

// splitBundle returns a bundle's (or a bundle delta's) application and
// client-table sections.
func splitBundle(data []byte) (appB, tableB []byte, err error) {
	rd := wire.NewReader(data)
	appB = rd.VarBytes()
	tableB = rd.VarBytes()
	if rd.Done() != nil {
		return nil, nil, errSnapshotBundle
	}
	return appB, tableB, nil
}

// BundleDigest is the digest of a Capture bundle's bytes received over the
// network or read from disk, computed with app's Digest: what a replica
// checks a snapshot against its certificate with before installing it.
func BundleDigest(app App, data []byte) ([32]byte, error) {
	appB, tableB, err := splitBundle(data)
	if err != nil {
		return [32]byte{}, err
	}
	appD, err := AsSnapshotter(app).Digest(appB)
	if err != nil {
		return [32]byte{}, err
	}
	return bundleDigest(appD, tableB), nil
}

var errSnapshotBundle = &wireError{"replication: malformed snapshot bundle"}

type wireError struct{ msg string }

func (e *wireError) Error() string { return e.msg }

// InstallSnapshot restores a Capture bundle into the application and
// client table, then re-stamps the cached replies as replica self's (ca
// MACs them): the bundle carries them canonicalized, and a duplicate
// request must be answered with a reply its client can authenticate.
func InstallSnapshot(app App, table *ClientTable, data []byte, self uint32, ca *auth.ReplicaSide) error {
	appB, tableB, err := splitBundle(data)
	if err != nil {
		return err
	}
	if err := AsSnapshotter(app).Restore(appB); err != nil {
		return err
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

// Freeze implements Snapshotter: the echo app is stateless.
func (EchoApp) Freeze() Frozen { return emptyState{} }

// Restore implements Snapshotter; only the empty snapshot restores.
func (EchoApp) Restore(data []byte) error {
	_, err := EchoApp{}.Digest(data)
	return err
}

// Digest implements Snapshotter.
func (EchoApp) Digest(data []byte) ([32]byte, error) {
	if len(data) != 0 {
		return [32]byte{}, errSnapshotBundle
	}
	return emptyDigest, nil
}

// Patch implements Snapshotter: the empty state's delta is empty.
func (EchoApp) Patch(snapshot, delta []byte) ([]byte, error) {
	if len(snapshot) != 0 || len(delta) != 0 {
		return nil, errSnapshotBundle
	}
	return nil, nil
}

// emptyDigest is the digest of a stateless application: SHA-256 of its
// empty snapshot.
var emptyDigest = sha256.Sum256(nil)

type emptyState struct{}

func (emptyState) Digest() [32]byte           { return emptyDigest }
func (emptyState) Size() int                  { return 0 }
func (emptyState) AppendTo(buf []byte) []byte { return buf }

func (emptyState) AppendDelta(buf []byte, since Frozen) ([]byte, bool) {
	_, ok := since.(emptyState)
	return buf, ok
}

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

// Marshal encodes the request with its envelope kind: the kind, the
// signed body, then the MAC vector.
func (r *Request) Marshal() []byte {
	buf := append(make([]byte, 0, 1+16+len(r.Op)+4+len(r.Auth)), KindRequest)
	return wire.AppendVarBytes(r.AppendSignedBody(buf), r.Auth)
}

// SignedBody returns the byte string the client authenticates.
func (r *Request) SignedBody() []byte { return r.AppendSignedBody(make([]byte, 0, 16+len(r.Op))) }

// AppendSignedBody appends SignedBody's bytes to buf, so a check can
// build them in a buffer on its stack.
func (r *Request) AppendSignedBody(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Client))
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	return wire.AppendVarBytes(buf, r.Op)
}

// UnmarshalRequest decodes a request (after the kind byte has been
// consumed or at offset 1 of a raw packet). Op and Auth are read-only
// views into body; the Request is the only allocation.
func UnmarshalRequest(body []byte) (*Request, error) {
	rd := wire.NewReader(body)
	r := &Request{}
	r.Client = transport.NodeID(rd.U32())
	r.ReqID = rd.U64()
	r.Op = rd.VarBytes()
	r.Auth = rd.VarBytes()
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

// Marshal encodes the reply with its envelope kind: the kind, the
// signed body, then the MAC.
func (r *Reply) Marshal() []byte {
	buf := append(make([]byte, 0, 1+65+len(r.Result)+4+len(r.Auth)), KindReply)
	return wire.AppendVarBytes(r.AppendSignedBody(buf), r.Auth)
}

// SignedBody returns the byte string the replica authenticates.
func (r *Reply) SignedBody() []byte { return r.AppendSignedBody(make([]byte, 0, 65+len(r.Result))) }

// AppendSignedBody appends SignedBody's bytes to buf, so a check can
// build them in a buffer on its stack.
func (r *Reply) AppendSignedBody(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.View)
	buf = binary.LittleEndian.AppendUint32(buf, r.Replica)
	buf = binary.LittleEndian.AppendUint64(buf, r.Slot)
	buf = append(buf, r.LogHash[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	spec := byte(0)
	if r.Speculative {
		spec = 1
	}
	return wire.AppendVarBytes(append(buf, spec), r.Result)
}

// UnmarshalReply decodes a reply body. Result and Auth are read-only
// views into body; the Reply is the only allocation.
func UnmarshalReply(body []byte) (*Reply, error) {
	rd := wire.NewReader(body)
	r := &Reply{}
	r.View = rd.U64()
	r.Replica = rd.U32()
	r.Slot = rd.U64()
	r.LogHash = rd.Bytes32()
	r.ReqID = rd.U64()
	r.Speculative = rd.Bool()
	r.Result = rd.VarBytes()
	r.Auth = rd.VarBytes()
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// RequestDigest hashes a request for log hashing and certificates.
func RequestDigest(r *Request) [32]byte {
	var body [256]byte // a larger body grows onto the heap
	return sha256.Sum256(r.AppendSignedBody(body[:0]))
}

// ChainHash extends a hash chain: H(prev ‖ entry). Used for the O(1)
// incremental log-hash of §5.3.
func ChainHash(prev [32]byte, entry [32]byte) [32]byte {
	var buf [64]byte
	copy(buf[:32], prev[:])
	copy(buf[32:], entry[:])
	return sha256.Sum256(buf[:])
}
