package kvstore

import (
	"encoding/binary"
	"errors"
	"sync"

	"neobft/internal/replication"
	"neobft/internal/wire"
)

// Op codes for the replicated KV service.
const (
	OpGet uint8 = iota + 1
	OpPut
	OpDelete
	OpScan
)

// EncodeGet builds a GET operation.
func EncodeGet(key string) []byte {
	w := wire.NewWriter(16 + len(key))
	w.U8(OpGet)
	w.VarBytes([]byte(key))
	return w.Bytes()
}

// EncodePut builds a PUT operation.
func EncodePut(key string, value []byte) []byte {
	w := wire.NewWriter(24 + len(key) + len(value))
	w.U8(OpPut)
	w.VarBytes([]byte(key))
	w.VarBytes(value)
	return w.Bytes()
}

// EncodeDelete builds a DELETE operation.
func EncodeDelete(key string) []byte {
	w := wire.NewWriter(16 + len(key))
	w.U8(OpDelete)
	w.VarBytes([]byte(key))
	return w.Bytes()
}

// EncodeScan builds a SCAN operation over [from, to) returning at most
// limit entries.
func EncodeScan(from, to string, limit uint32) []byte {
	w := wire.NewWriter(32 + len(from) + len(to))
	w.U8(OpScan)
	w.VarBytes([]byte(from))
	w.VarBytes([]byte(to))
	w.U32(limit)
	return w.Bytes()
}

// DecodeGetResult parses a GET result.
func DecodeGetResult(res []byte) (value []byte, found bool) {
	r := wire.NewReader(res)
	found = r.Bool()
	value = r.VarBytes()
	if r.Err() != nil {
		return nil, false
	}
	return value, found
}

// Store is the replicated-state-machine adapter around a BTree. It
// implements replication.App: Execute applies one encoded operation and
// returns an undo closure restoring the previous state of the touched
// key, which NeoBFT uses to roll back speculative execution. It
// implements replication.Snapshotter with a copy-on-write freeze of the
// tree and a state digest (digest.go) kept current by every write.
type Store struct {
	mu   sync.Mutex
	tree *BTree
	ops  uint64
	// index keeps the state digest current. The first Freeze builds it
	// from one scan, so a preload does not pay for it record by record;
	// Restore drops it.
	index *digestIndex
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tree: NewBTree()}
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Len()
}

// Ops returns the number of executed operations.
func (s *Store) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Load bulk-inserts a record without counting it as an executed op
// (dataset preload for benchmarks).
func (s *Store) Load(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, value)
}

// put and del are the tree's only writes besides Restore, which drops
// the index, so a built digest index sees every change. Caller holds
// s.mu.
func (s *Store) put(key string, value []byte) ([]byte, bool) {
	old, existed := s.tree.Put(key, value)
	if s.index != nil {
		s.index.put(key, value)
	}
	return old, existed
}

func (s *Store) del(key string) ([]byte, bool) {
	old, existed := s.tree.Delete(key)
	if existed && s.index != nil {
		s.index.del(key)
	}
	return old, existed
}

// Execute implements replication.App.
func (s *Store) Execute(op []byte) ([]byte, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	r := wire.NewReader(op)
	switch r.U8() {
	case OpGet:
		key := string(r.VarBytes())
		if r.Err() != nil {
			return errResult("bad get"), nil
		}
		v, found := s.tree.Get(key)
		w := wire.NewWriter(8 + len(v))
		w.Bool(found)
		w.VarBytes(v)
		return w.Bytes(), nil

	case OpPut:
		key := string(r.VarBytes())
		value := append([]byte(nil), r.VarBytes()...)
		if r.Err() != nil {
			return errResult("bad put"), nil
		}
		old, existed := s.put(key, value)
		w := wire.NewWriter(4)
		w.Bool(existed)
		undo := func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if existed {
				s.put(key, old)
			} else {
				s.del(key)
			}
		}
		return w.Bytes(), undo

	case OpDelete:
		key := string(r.VarBytes())
		if r.Err() != nil {
			return errResult("bad delete"), nil
		}
		old, existed := s.del(key)
		w := wire.NewWriter(4)
		w.Bool(existed)
		var undo func()
		if existed {
			undo = func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				s.put(key, old)
			}
		}
		return w.Bytes(), undo

	case OpScan:
		from := string(r.VarBytes())
		to := string(r.VarBytes())
		limit := r.U32()
		if r.Err() != nil {
			return errResult("bad scan"), nil
		}
		w := wire.NewWriter(256)
		var count uint32
		body := wire.NewWriter(256)
		s.tree.Scan(from, to, func(k string, v []byte) bool {
			if count >= limit {
				return false
			}
			body.VarBytes([]byte(k))
			body.VarBytes(v)
			count++
			return true
		})
		w.U32(count)
		w.Raw(body.Bytes())
		return w.Bytes(), nil
	}
	return errResult("unknown op"), nil
}

// Freeze implements replication.Snapshotter: it rehashes the buckets
// written since the last Freeze and keeps the tree's root as a
// copy-on-write view, so no byte of the snapshot is produced here.
func (s *Store) Freeze() replication.Frozen {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = indexTree(s.tree)
	}
	return &frozen{
		root:   s.tree.freeze(),
		count:  s.tree.Len(),
		bytes:  s.tree.Bytes(),
		digest: s.index.sum(s.tree.Len()),
	}
}

// frozen is a Freeze view: a tree root that no write modifies again.
type frozen struct {
	root         *node
	count, bytes int
	digest       [32]byte
}

func (f *frozen) Digest() [32]byte { return f.digest }

// Size is u32 count | (u32 len | key | u32 len | value)*.
func (f *frozen) Size() int { return 4 + 8*f.count + f.bytes }

// AppendTo writes the snapshot: a deterministic dump of every (key,
// value) pair in key order, u32 count | (varbytes key | varbytes
// value)*, after growing buf once to fit. Two stores holding the same
// map produce identical bytes.
func (f *frozen) AppendTo(buf []byte) []byte {
	buf = wire.Grow(buf, f.Size())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.count))
	return appendRecords(buf, f.root)
}

// Snapshot returns the snapshot bytes of the store as it is now.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := frozen{root: s.tree.root, count: s.tree.Len(), bytes: s.tree.Bytes()}
	return f.AppendTo(nil)
}

var errSnapshotOrder = errors.New("kvstore: snapshot keys not in ascending order")

// decodeSnapshot calls fn with each record of a snapshot, whose value
// aliases data. It refuses a snapshot whose keys do not strictly ascend:
// a map has one encoding, so its digest binds its bytes.
func decodeSnapshot(data []byte, fn func(key string, value []byte)) error {
	r := wire.NewReader(data)
	n := r.U32()
	var prev string
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		k := string(r.VarBytes())
		v := r.VarBytes()
		if r.Err() != nil {
			break
		}
		if i > 0 && k <= prev {
			return errSnapshotOrder
		}
		fn(k, v)
		prev = k
	}
	return r.Done()
}

// Digest implements replication.Snapshotter: the root of the digest
// tree built from the snapshot's records.
func (s *Store) Digest(data []byte) ([32]byte, error) {
	x := newDigestIndex()
	count := 0
	if err := decodeSnapshot(data, func(k string, v []byte) {
		x.append(k, v)
		count++
	}); err != nil {
		return [32]byte{}, err
	}
	return x.sum(count), nil
}

// Restore implements replication.Snapshotter: it replaces the tree with
// the snapshot's contents.
func (s *Store) Restore(data []byte) error {
	tree := NewBTree()
	if err := decodeSnapshot(data, func(k string, v []byte) {
		tree.Put(k, append([]byte(nil), v...))
	}); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree = tree
	s.index = nil
	return nil
}

func errResult(msg string) []byte {
	w := wire.NewWriter(8 + len(msg))
	w.U8(0xff)
	w.VarBytes([]byte(msg))
	return w.Bytes()
}
