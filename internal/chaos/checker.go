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
// like any other.
type RecordingApp struct {
	inner replication.App

	mu   sync.Mutex
	hist []Entry
}

// NewRecordingApp wraps inner. For snapshot support inner must also
// implement replication.Snapshotter (EchoApp and the kv store do).
func NewRecordingApp(inner replication.App) *RecordingApp {
	return &RecordingApp{inner: inner}
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
	a.hist = append(a.hist, e)
	a.mu.Unlock()
	return res, func() {
		a.mu.Lock()
		if n := len(a.hist); n > 0 && a.hist[n-1] == e {
			a.hist = a.hist[:n-1]
		}
		a.mu.Unlock()
		if undo != nil {
			undo()
		}
	}
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
	a.hist = a.hist[:len(a.hist)-n]
}

// SnapshotSize implements replication.Snapshotter: varbytes inner |
// u32 count | count × (u32 client | u64 seq | 32-byte digest).
func (a *RecordingApp) SnapshotSize() int {
	n := replication.SnapshotSize(a.inner)
	a.mu.Lock()
	defer a.mu.Unlock()
	return 8 + n + 44*len(a.hist)
}

// AppendSnapshot implements replication.Snapshotter: the inner
// application snapshot plus the history.
func (a *RecordingApp) AppendSnapshot(buf []byte) []byte {
	w := wire.AppendTo(buf)
	w.VarAppend(func(b []byte) []byte { return replication.AppendSnapshot(a.inner, b) })
	a.mu.Lock()
	defer a.mu.Unlock()
	w.U32(uint32(len(a.hist)))
	for _, e := range a.hist {
		w.U32(e.Client)
		w.U64(e.Seq)
		w.Bytes32(e.OpDigest)
	}
	return w.Bytes()
}

// Restore implements replication.Snapshotter.
func (a *RecordingApp) Restore(data []byte) error {
	rd := wire.NewReader(data)
	innerB := rd.VarBytes()
	n := rd.U32()
	if rd.Err() != nil {
		return fmt.Errorf("chaos: malformed recording snapshot")
	}
	hist := make([]Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		hist = append(hist, Entry{Client: rd.U32(), Seq: rd.U64(), OpDigest: rd.Bytes32()})
	}
	if rd.Done() != nil {
		return fmt.Errorf("chaos: malformed recording snapshot")
	}
	if s, ok := a.inner.(replication.Snapshotter); ok {
		if err := s.Restore(innerB); err != nil {
			return err
		}
	} else if len(innerB) != 0 {
		return fmt.Errorf("chaos: snapshot for non-snapshotting app")
	}
	a.mu.Lock()
	a.hist = hist
	a.mu.Unlock()
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
