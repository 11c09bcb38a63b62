// Package kvstore implements the in-memory, B-Tree-based key-value store
// used in the paper's storage-system evaluation (§6.5): a from-scratch
// B-Tree plus a replication.App adapter whose operations are wire-encoded
// GET/PUT/DELETE/SCAN commands with undo support for NeoBFT's speculative
// execution.
package kvstore

import "strings"

// degree is the B-Tree minimum degree t: non-root nodes hold between t-1
// and 2t-1 keys.
const degree = 16

type item struct {
	key   string
	value []byte
}

type node struct {
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// BTree is an in-memory B-Tree mapping string keys to byte values.
type BTree struct {
	root  *node
	size  int
	bytes int // Σ len(key)+len(value) over every item
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &node{}}
}

// Len returns the number of keys stored.
func (t *BTree) Len() int { return t.size }

// Bytes returns the total length of every stored key and value.
func (t *BTree) Bytes() int { return t.bytes }

// search returns the position of key in items and whether it was found.
func search(items []item, key string) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if c := strings.Compare(items[mid].key, key); c < 0 {
			lo = mid + 1
		} else if c > 0 {
			hi = mid
		} else {
			return mid, true
		}
	}
	return lo, false
}

// Get returns the value for key.
func (t *BTree) Get(key string) ([]byte, bool) {
	n := t.root
	for {
		i, found := search(n.items, key)
		if found {
			return n.items[i].value, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// Put inserts or replaces a key, returning the previous value if any.
func (t *BTree) Put(key string, value []byte) (old []byte, existed bool) {
	if len(t.root.items) == 2*degree-1 {
		oldRoot := t.root
		t.root = &node{children: []*node{oldRoot}}
		t.root.splitChild(0)
	}
	old, existed = t.root.insert(key, value)
	if existed {
		t.bytes += len(value) - len(old)
	} else {
		t.size++
		t.bytes += len(key) + len(value)
	}
	return old, existed
}

// splitChild splits the full child at index i.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := degree - 1
	median := child.items[mid]
	right := &node{items: append([]item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]
	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insert(key string, value []byte) (old []byte, existed bool) {
	i, found := search(n.items, key)
	if found {
		old = n.items[i].value
		n.items[i].value = value
		return old, true
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: key, value: value}
		return nil, false
	}
	if len(n.children[i].items) == 2*degree-1 {
		n.splitChild(i)
		if c := strings.Compare(n.items[i].key, key); c < 0 {
			i++
		} else if c == 0 {
			old = n.items[i].value
			n.items[i].value = value
			return old, true
		}
	}
	return n.children[i].insert(key, value)
}

// Delete removes a key, returning its value if it was present.
func (t *BTree) Delete(key string) ([]byte, bool) {
	old, existed := t.root.delete(key)
	if existed {
		t.size--
		t.bytes -= len(key) + len(old)
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return old, existed
}

// delete implements CLRS B-Tree deletion: every recursive descent happens
// into a child with at least `degree` items, so underflow never needs to
// propagate upward.
func (n *node) delete(key string) ([]byte, bool) {
	i, found := search(n.items, key)
	if n.leaf() {
		if !found {
			return nil, false
		}
		old := n.items[i].value
		n.items = append(n.items[:i], n.items[i+1:]...)
		return old, true
	}
	if found {
		old := n.items[i].value
		switch {
		case len(n.children[i].items) >= degree:
			pk, pv := n.children[i].maxItem()
			n.items[i] = item{key: pk, value: pv}
			n.children[i].delete(pk)
		case len(n.children[i+1].items) >= degree:
			sk, sv := n.children[i+1].minItem()
			n.items[i] = item{key: sk, value: sv}
			n.children[i+1].delete(sk)
		default:
			n.mergeChildren(i)
			n.children[i].delete(key)
		}
		return old, true
	}
	if len(n.children[i].items) < degree {
		n.fill(i)
		// The structure changed (rotation may even have lifted the key
		// into this node); re-dispatch once.
		return n.delete(key)
	}
	return n.children[i].delete(key)
}

// fill gives child i at least `degree` items by borrowing from a sibling
// or merging with one.
func (n *node) fill(i int) {
	if i > 0 && len(n.children[i-1].items) >= degree {
		// Rotate right: left sibling's last item moves up, separator
		// moves down.
		left, child := n.children[i-1], n.children[i]
		child.items = append([]item{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append([]*node{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		// Rotate left.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
		return
	}
	if i == len(n.children)-1 {
		i--
	}
	n.mergeChildren(i)
}

// mergeChildren merges child i, separator item i, and child i+1.
func (n *node) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	if !left.leaf() {
		left.children = append(left.children, right.children...)
	}
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *node) maxItem() (string, []byte) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	it := n.items[len(n.items)-1]
	return it.key, it.value
}

func (n *node) minItem() (string, []byte) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0].key, n.items[0].value
}

// Scan visits keys in [from, to) in order, stopping when fn returns
// false. An empty `to` means "to the end".
func (t *BTree) Scan(from, to string, fn func(key string, value []byte) bool) {
	t.root.scan(from, to, fn)
}

func (n *node) scan(from, to string, fn func(string, []byte) bool) bool {
	i, _ := search(n.items, from)
	for ; i < len(n.items); i++ {
		if !n.leaf() {
			if !n.children[i].scan(from, to, fn) {
				return false
			}
		}
		it := n.items[i]
		if to != "" && it.key >= to {
			return false
		}
		if it.key >= from {
			if !fn(it.key, it.value) {
				return false
			}
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].scan(from, to, fn)
	}
	return true
}
