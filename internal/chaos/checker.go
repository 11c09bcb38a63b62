package chaos

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"neobft/internal/replication"
	"neobft/internal/wire"
)

// Chaos operations carry their own identity so the checker can match
// client-visible acknowledgements against replica execution histories:
// every op starts with a magic header naming (client, sequence).
const opMagic = 0xC4

// EncodeOp builds a chaos operation payload for (client, seq) padded to
// at least size bytes with deterministic filler.
func EncodeOp(client uint32, seq uint64, size int) []byte {
	w := wire.NewWriter(16 + size)
	w.U8(opMagic)
	w.U32(client)
	w.U64(seq)
	for w.Len() < size {
		w.U8(byte('a' + (int(client)+int(seq)+w.Len())%26))
	}
	return w.Bytes()
}

// DecodeOp extracts the (client, seq) identity from a chaos op.
func DecodeOp(op []byte) (client uint32, seq uint64, ok bool) {
	if len(op) < 13 || op[0] != opMagic {
		return 0, 0, false
	}
	rd := wire.NewReader(op[1:13])
	client = rd.U32()
	seq = rd.U64()
	return client, seq, rd.Err() == nil
}

// Entry is one executed operation in a replica's history.
type Entry struct {
	Client   uint32
	Seq      uint64
	OpDigest [32]byte
}

// RecordingApp wraps the replicated application and records every
// executed chaos op in order. It implements replication.Snapshotter by
// bundling the inner snapshot with the history, so a replica restored
// from a checkpoint resumes with the full execution history up to that
// checkpoint — which is what lets the checker treat restored replicas
// like any other. Its state digest is H(inner digest | head | u64
// count), where head chains the entries, H(previous head | u32 client |
// u64 seq | op digest) from 32 zero bytes, and is extended per entry, so
// a capture does not rehash the history.
type RecordingApp struct {
	inner replication.App
	snap  replication.Snapshotter

	mu    sync.Mutex
	hist  []Entry
	heads [][32]byte // heads[i] is the chain head over hist[:i+1]
	// frozen is how much of hist's backing array a frozen view may read:
	// an append below it copies the history first.
	frozen int
}

// NewRecordingApp wraps inner. Without replication.Snapshotter, inner
// snapshots as a stateless application.
func NewRecordingApp(inner replication.App) *RecordingApp {
	return &RecordingApp{inner: inner, snap: replication.AsSnapshotter(inner)}
}

// Execute implements replication.App. Ops without the chaos header are
// passed through unrecorded. The undo wrapper pops the recorded entry:
// speculative protocols (Zyzzyva, NeoBFT) roll back in LIFO order, so
// the popped entry is always the tail.
func (a *RecordingApp) Execute(op []byte) ([]byte, func()) {
	res, undo := a.inner.Execute(op)
	client, seq, ok := DecodeOp(op)
	if !ok {
		return res, undo
	}
	e := Entry{Client: client, Seq: seq, OpDigest: sha256.Sum256(op)}
	a.mu.Lock()
	a.push(e)
	a.mu.Unlock()
	return res, func() {
		a.mu.Lock()
		if n := len(a.hist); n > 0 && a.hist[n-1] == e {
			a.truncate(n - 1)
		}
		a.mu.Unlock()
		if undo != nil {
			undo()
		}
	}
}

// push appends e to the history and extends the chain. Caller holds a.mu.
func (a *RecordingApp) push(e Entry) {
	if n := len(a.hist); n < a.frozen {
		// A frozen view still reads hist[n:] and heads[n:]: capping the
		// slices makes append move them to arrays of their own.
		a.hist, a.heads = a.hist[:n:n], a.heads[:n:n]
		a.frozen = 0
	}
	a.hist = append(a.hist, e)
	a.heads = append(a.heads, chain(a.head(), e))
}

// truncate keeps the first n entries. Caller holds a.mu.
func (a *RecordingApp) truncate(n int) {
	a.hist = a.hist[:n]
	a.heads = a.heads[:n]
}

// head is the chain head over the whole history. Caller holds a.mu.
func (a *RecordingApp) head() [32]byte {
	if n := len(a.heads); n > 0 {
		return a.heads[n-1]
	}
	return [32]byte{}
}

func chain(head [32]byte, e Entry) [32]byte {
	w := wire.NewWriter(76)
	w.Bytes32(head)
	w.U32(e.Client)
	w.U64(e.Seq)
	w.Bytes32(e.OpDigest)
	return sha256.Sum256(w.Bytes())
}

func recordingDigest(inner, head [32]byte, count int) [32]byte {
	w := wire.NewWriter(72)
	w.Bytes32(inner)
	w.Bytes32(head)
	w.U64(uint64(count))
	return sha256.Sum256(w.Bytes())
}

// History returns a copy of the executed-op history.
func (a *RecordingApp) History() []Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Entry(nil), a.hist...)
}

// DropTail removes the last n history entries. Tests use it to fake a
// replica that lost committed operations.
func (a *RecordingApp) DropTail(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > len(a.hist) {
		n = len(a.hist)
	}
	a.truncate(len(a.hist) - n)
}

// Freeze implements replication.Snapshotter. The view shares the
// history's and the chain heads' backing arrays up to their length.
func (a *RecordingApp) Freeze() replication.Frozen {
	inner := a.snap.Freeze()
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.hist)
	a.frozen = max(a.frozen, n)
	return &recording{
		inner:  inner,
		hist:   a.hist[:n:n],
		heads:  a.heads[:n:n],
		digest: recordingDigest(inner.Digest(), a.head(), n),
	}
}

// recording is a frozen RecordingApp.
type recording struct {
	inner  replication.Frozen
	hist   []Entry
	heads  [][32]byte
	digest [32]byte
}

func (r *recording) Digest() [32]byte { return r.digest }

// Size is varbytes inner | u32 count | count × (u32 client | u64 seq |
// 32-byte digest).
func (r *recording) Size() int { return 8 + r.inner.Size() + 44*len(r.hist) }

func (r *recording) AppendTo(buf []byte) []byte {
	w := wire.AppendTo(wire.Grow(buf, r.Size()))
	w.VarAppend(r.inner.AppendTo)
	return appendEntries(w.Bytes(), r.hist)
}

// AppendDelta writes varbytes inner delta | u32 count | the entries
// appended since since, encoded as in the snapshot. It reports false
// when since's history is not a prefix of this one: a rollback went
// below it.
func (r *recording) AppendDelta(buf []byte, since replication.Frozen) ([]byte, bool) {
	s, ok := since.(*recording)
	if !ok {
		return buf, false
	}
	n := len(s.hist)
	if n > len(r.hist) || n > 0 && r.heads[n-1] != s.heads[n-1] {
		return buf, false
	}
	w := wire.AppendTo(buf)
	if !w.VarAppendIf(func(buf []byte) ([]byte, bool) { return r.inner.AppendDelta(buf, s.inner) }) {
		return buf, false
	}
	return appendEntries(w.Bytes(), r.hist[n:]), true
}

func appendEntries(buf []byte, hist []Entry) []byte {
	w := wire.AppendTo(buf)
	w.U32(uint32(len(hist)))
	for _, e := range hist {
		w.U32(e.Client)
		w.U64(e.Seq)
		w.Bytes32(e.OpDigest)
	}
	return w.Bytes()
}

var errRecordingSnapshot = fmt.Errorf("chaos: malformed recording snapshot")

// decodeRecording splits a recording snapshot into the inner snapshot
// and the history.
func decodeRecording(data []byte) ([]byte, []Entry, error) {
	rd := wire.NewReader(data)
	innerB := rd.VarBytes()
	n := rd.U32()
	if rd.Err() != nil || int(n) > rd.Remaining()/44 {
		return nil, nil, errRecordingSnapshot
	}
	hist := make([]Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		hist = append(hist, Entry{Client: rd.U32(), Seq: rd.U64(), OpDigest: rd.Bytes32()})
	}
	if rd.Done() != nil {
		return nil, nil, errRecordingSnapshot
	}
	return innerB, hist, nil
}

// Digest implements replication.Snapshotter.
func (a *RecordingApp) Digest(data []byte) ([32]byte, error) {
	innerB, hist, err := decodeRecording(data)
	if err != nil {
		return [32]byte{}, err
	}
	inner, err := a.snap.Digest(innerB)
	if err != nil {
		return [32]byte{}, err
	}
	var head [32]byte
	for _, e := range hist {
		head = chain(head, e)
	}
	return recordingDigest(inner, head, len(hist)), nil
}

// Patch implements replication.Snapshotter: the inner snapshot patched
// with the inner delta, and the history extended by the delta's entries.
func (a *RecordingApp) Patch(snapshot, delta []byte) ([]byte, error) {
	innerB, hist, err := decodeRecording(snapshot)
	if err != nil {
		return nil, err
	}
	innerD, more, err := decodeRecording(delta)
	if err != nil {
		return nil, err
	}
	if innerB, err = a.snap.Patch(innerB, innerD); err != nil {
		return nil, err
	}
	w := wire.NewWriter(8 + len(innerB) + 44*(len(hist)+len(more)))
	w.VarBytes(innerB)
	return appendEntries(w.Bytes(), append(hist, more...)), nil
}

// Restore implements replication.Snapshotter.
func (a *RecordingApp) Restore(data []byte) error {
	innerB, hist, err := decodeRecording(data)
	if err != nil {
		return err
	}
	if err := a.snap.Restore(innerB); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hist, a.heads, a.frozen = nil, nil, 0
	for _, e := range hist {
		a.push(e)
	}
	return nil
}

// Ack is a client-visible acknowledgement: the client received a
// correctly-quorum'd reply for (Client, Seq).
type Ack struct {
	Client uint32
	Seq    uint64
}

// AckRecorder collects acknowledgements from concurrent client
// goroutines.
type AckRecorder struct {
	mu   sync.Mutex
	acks []Ack
}

// Record notes a successful invocation.
func (r *AckRecorder) Record(client uint32, seq uint64) {
	r.mu.Lock()
	r.acks = append(r.acks, Ack{Client: client, Seq: seq})
	r.mu.Unlock()
}

// Acks returns a copy of the recorded acknowledgements.
func (r *AckRecorder) Acks() []Ack {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Ack(nil), r.acks...)
}

// Result is the outcome of a safety check.
type Result struct {
	// Violations lists every invariant breach; empty means the run is
	// safe. The slice is capped at 32 entries to keep reports readable.
	Violations []string
	// AckedChecked is how many client-visible acks were verified durable.
	AckedChecked int
	// LongestHistory is the reference history length.
	LongestHistory int
	// Divergence is the maximum number of trailing entries by which a
	// correct replica lags the longest history at check time — the
	// bounded-divergence window. It is reported, not a violation:
	// speculative tails legitimately differ until the next checkpoint.
	Divergence int
}

// Ok reports whether the run was safe.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

const maxViolations = 32

func (r *Result) addf(format string, args ...any) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// Check verifies the core SMR invariants over the surviving replicas'
// execution histories and the client-visible acks:
//
//  1. Prefix consistency: every history is a prefix of the longest one —
//     correct replicas executed the same operations in the same order up
//     to their respective execution points (identical order at matching
//     checkpoints follows).
//  2. No committed op lost: every acknowledged (client, seq) appears in
//     the longest history. An ack implies a reply quorum, so the op must
//     survive any tolerated combination of faults and recoveries.
//  3. Per-client monotonicity: acknowledged ops of one client execute in
//     issue order (closed-loop clients issue seq n+1 only after seq n is
//     acked). Ops that timed out client-side may legitimately execute
//     late and are exempt.
//  4. No double execution: a (client, seq) pair appears at most once per
//     history.
//
// histories maps replica index → history; crashed-and-not-recovered
// replicas should be omitted.
func Check(histories map[int][]Entry, acks []Ack) Result {
	var res Result

	// Reference = the longest history.
	ref := -1
	for i, h := range histories {
		if ref < 0 || len(h) > len(histories[ref]) || (len(h) == len(histories[ref]) && i < ref) {
			ref = i
		}
	}
	if ref < 0 {
		res.addf("no replica histories to check")
		return res
	}
	longest := histories[ref]
	res.LongestHistory = len(longest)

	// (4) + index the reference history.
	type id struct {
		client uint32
		seq    uint64
	}
	refIndex := make(map[id]int, len(longest))
	for pos, e := range longest {
		k := id{e.Client, e.Seq}
		if prev, dup := refIndex[k]; dup {
			res.addf("replica %d executed client=%d seq=%d twice (positions %d and %d)",
				ref, e.Client, e.Seq, prev, pos)
			continue
		}
		refIndex[k] = pos
	}

	// (1) prefix consistency + divergence window.
	for i, h := range histories {
		if i == ref {
			continue
		}
		if lag := len(longest) - len(h); lag > res.Divergence {
			res.Divergence = lag
		}
		for pos := range h {
			if h[pos] != longest[pos] {
				res.addf("replica %d diverges from replica %d at position %d: client=%d seq=%d vs client=%d seq=%d",
					i, ref, pos, h[pos].Client, h[pos].Seq, longest[pos].Client, longest[pos].Seq)
				break
			}
		}
		// Duplicates inside the shorter history (its prefix region is
		// covered by ref's duplicate check only when identical).
		seen := make(map[id]bool, len(h))
		for _, e := range h {
			k := id{e.Client, e.Seq}
			if seen[k] {
				res.addf("replica %d executed client=%d seq=%d twice", i, e.Client, e.Seq)
			}
			seen[k] = true
		}
	}

	// (2) acked durability.
	acked := make(map[id]bool, len(acks))
	for _, a := range acks {
		k := id{a.Client, a.Seq}
		acked[k] = true
		if _, ok := refIndex[k]; !ok {
			res.addf("committed op lost: client=%d seq=%d was acked but is absent from the longest history",
				a.Client, a.Seq)
		}
	}
	res.AckedChecked = len(acks)

	// (3) per-client monotonicity of acked ops in the reference history.
	lastSeq := map[uint32]uint64{}
	for _, e := range longest {
		if !acked[id{e.Client, e.Seq}] {
			continue // timed out client-side: may execute late, any order
		}
		if prev, ok := lastSeq[e.Client]; ok && e.Seq <= prev {
			res.addf("client %d acked ops executed out of order: seq %d after %d", e.Client, e.Seq, prev)
		}
		lastSeq[e.Client] = e.Seq
	}
	return res
}
