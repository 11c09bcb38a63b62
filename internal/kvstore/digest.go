package kvstore

import (
	"crypto/sha256"
	"encoding/binary"
)

// The store's state digest is a two-level Merkle tree of SHA-256 over
// fixed key-hash buckets, so a capture rehashes only the buckets written
// since the last one:
//
//	bucket(key) = FNV-1a-64(key) mod 4096
//	leaf[b]     = SHA-256(u32 len | key | u32 len | value, for each record
//	              of bucket b in key order), or 32 zero bytes when the
//	              bucket holds no record
//	group[g]    = SHA-256(leaf[64g] | … | leaf[64g+63])
//	root        = SHA-256("neobft-kvstore-v1" | u64 count | group[0] | … | group[63])
//
// Lengths and the count are little-endian, as in the snapshot. The root
// depends on the (key, value) set alone: not on insertion order, tree
// shape, undo or capture history, or whether the store was loaded,
// restored or executed into. It is not an additive or XOR sum of record
// hashes, whose collisions Wagner's k-sum attack finds for records that
// clients choose. The bucket function decides only cost: a client who
// crowds one bucket makes a capture rehash it whole, which is no more
// than hashing the whole snapshot.
const (
	digestBuckets = 4096
	digestGroups  = 64
	groupBuckets  = digestBuckets / digestGroups
	digestDomain  = "neobft-kvstore-v1"
)

func bucketOf(key string) int {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return int(h % digestBuckets)
}

// digestIndex keeps every record in its bucket, in key order, and the
// leaf and group digests of the last sum.
type digestIndex struct {
	buckets [digestBuckets][]item
	leaves  [digestBuckets][32]byte
	groups  [digestGroups][32]byte
	dirty   []int // buckets written since the last sum
	marked  [digestBuckets]bool
	scratch []byte
}

func newDigestIndex() *digestIndex {
	x := &digestIndex{}
	for b := range x.buckets {
		x.mark(b)
	}
	return x
}

// indexTree builds the index of t from one in-order scan.
func indexTree(t *BTree) *digestIndex {
	x := newDigestIndex()
	t.Scan("", "", func(k string, v []byte) bool {
		x.append(k, v)
		return true
	})
	return x
}

func (x *digestIndex) mark(b int) {
	if !x.marked[b] {
		x.marked[b] = true
		x.dirty = append(x.dirty, b)
	}
}

// append adds a record whose key is above every key in its bucket.
func (x *digestIndex) append(key string, value []byte) {
	b := bucketOf(key)
	x.buckets[b] = append(x.buckets[b], item{key: key, value: value})
}

// put records key's new value.
func (x *digestIndex) put(key string, value []byte) {
	b := bucketOf(key)
	items := x.buckets[b]
	i, found := search(items, key)
	if found {
		items[i].value = value
	} else {
		items = append(items, item{})
		copy(items[i+1:], items[i:])
		items[i] = item{key: key, value: value}
		x.buckets[b] = items
	}
	x.mark(b)
}

// del forgets key.
func (x *digestIndex) del(key string) {
	b := bucketOf(key)
	items := x.buckets[b]
	if i, found := search(items, key); found {
		x.buckets[b] = append(items[:i], items[i+1:]...)
		x.mark(b)
	}
}

// sum rehashes the buckets written since the last sum and their groups,
// and returns the root for a store of count records.
func (x *digestIndex) sum(count int) [32]byte {
	var groups [digestGroups]bool
	for _, b := range x.dirty {
		x.marked[b] = false
		groups[b/groupBuckets] = true
		x.leaves[b] = x.leaf(x.buckets[b])
	}
	x.dirty = x.dirty[:0]
	for g, changed := range groups {
		if !changed {
			continue
		}
		buf := x.scratch[:0]
		for b := g * groupBuckets; b < (g+1)*groupBuckets; b++ {
			buf = append(buf, x.leaves[b][:]...)
		}
		x.scratch = buf
		x.groups[g] = sha256.Sum256(buf)
	}
	buf := append(x.scratch[:0], digestDomain...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
	for g := range x.groups {
		buf = append(buf, x.groups[g][:]...)
	}
	x.scratch = buf
	return sha256.Sum256(buf)
}

func (x *digestIndex) leaf(items []item) [32]byte {
	if len(items) == 0 {
		return [32]byte{}
	}
	buf := x.scratch[:0]
	for _, it := range items {
		buf = appendRecord(buf, it.key, it.value)
	}
	x.scratch = buf
	return sha256.Sum256(buf)
}

// appendRecord appends u32 len | key | u32 len | value.
func appendRecord(buf []byte, key string, value []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(value)))
	return append(buf, value...)
}

// appendRecords appends the records under n in key order.
func appendRecords(buf []byte, n *node) []byte {
	for i, it := range n.items {
		if !n.leaf() {
			buf = appendRecords(buf, n.children[i])
		}
		buf = appendRecord(buf, it.key, it.value)
	}
	if !n.leaf() {
		buf = appendRecords(buf, n.children[len(n.items)])
	}
	return buf
}
