package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"

	"neobft/internal/replication"
	"neobft/internal/wire"
)

// A delta between two frozen views of a store is
//
//	u32 n | (varbytes key | varbytes value)* | u32 m | (varbytes key)*
//
// the n records the newer view puts (added or changed), then the m keys
// it deleted, both in strictly ascending key order. AppendDelta writes
// it; Patch merges it into the older view's snapshot.

// AppendDelta implements replication.Frozen. It walks both copy-on-write
// roots in key order and skips every subtree the two views share, so its
// cost grows with the nodes written between them, not with the store. A
// since that is not a view of a store yields false.
func (f *frozen) AppendDelta(buf []byte, since replication.Frozen) ([]byte, bool) {
	s, ok := since.(*frozen)
	if !ok {
		return buf, false
	}
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	var puts uint32
	var dels []string
	diff(f.root, s.root, func(it *item) {
		buf = appendRecord(buf, it.key, it.value)
		puts++
	}, func(key string) {
		dels = append(dels, key)
	})
	binary.LittleEndian.PutUint32(buf[off:], puts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dels)))
	for _, k := range dels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
	}
	return buf, true
}

// diff calls put for every item under cur whose key is absent under old
// or holds another value there, and del for every key under old absent
// under cur, each in ascending key order.
func diff(cur, old *node, put func(*item), del func(key string)) {
	a, b := newCursor(cur), newCursor(old)
	for {
		sa, ha, ia := a.unit()
		sb, hb, ib := b.unit()
		switch {
		case sa != nil && sa == sb:
			// A shared subtree: both views hold exactly its records.
			a.next()
			b.next()
		case sa != nil && (sb == nil || ha >= hb):
			// Enter the taller subtree first: a subtree the views share
			// sits at one height in both, so the cursors meet at it.
			a.enter()
		case sb != nil:
			b.enter()
		case ia == nil && ib == nil:
			return
		case ib == nil || ia != nil && ia.key < ib.key:
			put(ia)
			a.next()
		case ia == nil || ib.key < ia.key:
			del(ib.key)
			b.next()
		default:
			if !bytes.Equal(ia.value, ib.value) {
				put(ia)
			}
			a.next()
			b.next()
		}
	}
}

// cursor walks a tree in key order one unit at a time. A node's units
// are its items, interleaved with its children for an inner node:
// child 0, item 0, child 1, …, child k. A child is a unit until the walk
// enters it.
type cursor struct{ path []frame }

type frame struct {
	n *node
	h int // height: 0 for a leaf
	i int // the next unit
}

func newCursor(root *node) *cursor {
	h := 0
	for n := root; !n.leaf(); n = n.children[0] {
		h++
	}
	return &cursor{path: []frame{{n: root, h: h}}}
}

// unit returns the next unit: a subtree and its height, or an item.
// Both are nil at the end.
func (c *cursor) unit() (*node, int, *item) {
	for len(c.path) > 0 {
		f := &c.path[len(c.path)-1]
		switch {
		case f.n.leaf():
			if f.i < len(f.n.items) {
				return nil, 0, &f.n.items[f.i]
			}
		case f.i <= 2*len(f.n.items):
			if f.i%2 == 0 {
				return f.n.children[f.i/2], f.h - 1, nil
			}
			return nil, 0, &f.n.items[f.i/2]
		}
		c.path = c.path[:len(c.path)-1]
	}
	return nil, 0, nil
}

// next passes over the unit unit returned.
func (c *cursor) next() { c.path[len(c.path)-1].i++ }

// enter descends into the subtree unit returned.
func (c *cursor) enter() {
	f := &c.path[len(c.path)-1]
	f.i++
	c.path = append(c.path, frame{n: f.n.children[(f.i-1)/2], h: f.h - 1})
}

var errDelta = errors.New("kvstore: malformed delta")

// Patch implements replication.Snapshotter: it merges a delta into the
// snapshot of the view it was taken against. It refuses a delta whose
// keys do not strictly ascend, that deletes a key the snapshot lacks or
// that it also puts, or that has trailing bytes: deltas are read back
// from disk.
func (s *Store) Patch(snapshot, delta []byte) ([]byte, error) {
	rd := wire.NewReader(delta)
	n := rd.U32()
	if rd.Err() != nil || int(n) > rd.Remaining()/8 {
		return nil, errDelta
	}
	puts := make([]item, n)
	for i := range puts {
		puts[i] = item{key: string(rd.VarBytes()), value: rd.VarBytes()}
		if rd.Err() == nil && i > 0 && puts[i].key <= puts[i-1].key {
			return nil, errDelta
		}
	}
	m := rd.U32()
	if rd.Err() != nil || int(m) > rd.Remaining()/4 {
		return nil, errDelta
	}
	dels := make([]string, m)
	for i := range dels {
		dels[i] = string(rd.VarBytes())
		if rd.Err() == nil && i > 0 && dels[i] <= dels[i-1] {
			return nil, errDelta
		}
	}
	if rd.Done() != nil {
		return nil, errDelta
	}

	out := make([]byte, 4, len(snapshot)+len(delta))
	count := uint32(0)
	emit := func(k string, v []byte) {
		out = appendRecord(out, k, v)
		count++
	}
	// Merge the snapshot's records with the puts and deletes, all three
	// in ascending key order.
	var bad bool
	err := decodeSnapshot(snapshot, func(k string, v []byte) {
		for len(puts) > 0 && puts[0].key < k {
			emit(puts[0].key, puts[0].value)
			puts = puts[1:]
		}
		for len(dels) > 0 && dels[0] < k {
			bad = true // deletes a key the snapshot lacks
			dels = dels[1:]
		}
		del := len(dels) > 0 && dels[0] == k
		put := len(puts) > 0 && puts[0].key == k
		switch {
		case del && put:
			bad = true
		case del:
			dels = dels[1:]
		case put:
			emit(k, puts[0].value)
			puts = puts[1:]
		default:
			emit(k, v)
		}
	})
	if err != nil {
		return nil, err
	}
	if bad || len(dels) > 0 {
		return nil, errDelta
	}
	for _, p := range puts {
		emit(p.key, p.value)
	}
	binary.LittleEndian.PutUint32(out, count)
	return out, nil
}
