package kvstore

import (
	"encoding/binary"
	"slices"
	"sync"

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
// key, which NeoBFT uses to roll back speculative execution.
type Store struct {
	mu   sync.Mutex
	tree *BTree
	ops  uint64
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
	s.tree.Put(key, value)
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
		old, existed := s.tree.Put(key, value)
		w := wire.NewWriter(4)
		w.Bool(existed)
		undo := func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if existed {
				s.tree.Put(key, old)
			} else {
				s.tree.Delete(key)
			}
		}
		return w.Bytes(), undo

	case OpDelete:
		key := string(r.VarBytes())
		if r.Err() != nil {
			return errResult("bad delete"), nil
		}
		old, existed := s.tree.Delete(key)
		w := wire.NewWriter(4)
		w.Bool(existed)
		var undo func()
		if existed {
			undo = func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				s.tree.Put(key, old)
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

// SnapshotSize implements replication.Snapshotter. The size is exact and
// costs nothing to read: the tree keeps its key and value bytes current
// through every Put and Delete, which every write path here (Execute,
// undo, Load, Restore) goes through.
func (s *Store) SnapshotSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotSizeLocked()
}

// snapshotSizeLocked is u32 count | (u32 len | key | u32 len | value)*.
func (s *Store) snapshotSizeLocked() int {
	return 4 + 8*s.tree.Len() + s.tree.Bytes()
}

// AppendSnapshot implements replication.Snapshotter: a deterministic dump
// of every (key, value) pair in key order, u32 count | (varbytes key |
// varbytes value)*, appended to buf in one pass of the tree after growing
// buf once to fit. Two stores holding the same map produce identical
// bytes, so checkpoint digests computed over the snapshot match across
// replicas.
func (s *Store) AppendSnapshot(buf []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf = slices.Grow(buf, s.snapshotSizeLocked())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.tree.Len()))
	s.tree.Scan("", "", func(k string, v []byte) bool {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
		return true
	})
	return buf
}

// Snapshot returns the AppendSnapshot bytes in a buffer of their own.
func (s *Store) Snapshot() []byte { return s.AppendSnapshot(nil) }

// Restore implements replication.Snapshotter: it replaces the tree with
// the snapshot's contents.
func (s *Store) Restore(data []byte) error {
	r := wire.NewReader(data)
	n := r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	tree := NewBTree()
	for i := uint32(0); i < n; i++ {
		k := string(r.VarBytes())
		v := append([]byte(nil), r.VarBytes()...)
		if r.Err() != nil {
			return r.Err()
		}
		tree.Put(k, v)
	}
	if err := r.Done(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree = tree
	return nil
}

func errResult(msg string) []byte {
	w := wire.NewWriter(8 + len(msg))
	w.U8(0xff)
	w.VarBytes([]byte(msg))
	return w.Bytes()
}
