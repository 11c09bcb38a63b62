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
	// gen is the tree generation that may modify the node in place; a
	// node of an earlier generation may be shared with a frozen root.
	gen      uint64
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// writable returns n if generation gen may modify it, else a copy that
// it may.
func (n *node) writable(gen uint64) *node {
	if n.gen == gen {
		return n
	}
	return n.clone(gen)
}

func (n *node) clone(gen uint64) *node {
	c := &node{gen: gen, items: append([]item(nil), n.items...)}
	if n.children != nil {
		c.children = append([]*node(nil), n.children...)
	}
	return c
}

// child makes n's child i writable by gen and returns it. n must
// already be writable by gen.
func (n *node) child(i int, gen uint64) *node {
	c := n.children[i]
	if c.gen != gen {
		c = c.clone(gen)
		n.children[i] = c
	}
	return c
}

// BTree is an in-memory, copy-on-write B-Tree mapping string keys to
// byte values. freeze keeps the current root as a read-only view: every
// later write copies the nodes on its path that the view shares instead
// of modifying them, so a frozen root may be read on any goroutine while
// the tree moves on.
type BTree struct {
	root  *node
	gen   uint64
	size  int
	bytes int // Σ len(key)+len(value) over every item
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &node{}}
}

// freeze returns the root as it is now and starts a new generation, so
// no write modifies a node reachable from it again.
func (t *BTree) freeze() *node {
	t.gen++
	return t.root
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
		t.root = &node{gen: t.gen, children: []*node{t.root}}
		t.root.splitChild(0, t.gen)
	} else {
		t.root = t.root.writable(t.gen)
	}
	old, existed = t.root.insert(key, value, t.gen)
	if existed {
		t.bytes += len(value) - len(old)
	} else {
		t.size++
		t.bytes += len(key) + len(value)
	}
	return old, existed
}

// splitChild splits the full child at index i. Like every node method
// that modifies, it needs n writable by gen and makes writable every
// node below n that it changes.
func (n *node) splitChild(i int, gen uint64) {
	child := n.child(i, gen)
	mid := degree - 1
	median := child.items[mid]
	right := &node{gen: gen, items: append([]item(nil), child.items[mid+1:]...)}
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

func (n *node) insert(key string, value []byte, gen uint64) (old []byte, existed bool) {
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
		n.splitChild(i, gen)
		if c := strings.Compare(n.items[i].key, key); c < 0 {
			i++
		} else if c == 0 {
			old = n.items[i].value
			n.items[i].value = value
			return old, true
		}
	}
	return n.child(i, gen).insert(key, value, gen)
}

// Delete removes a key, returning its value if it was present.
func (t *BTree) Delete(key string) ([]byte, bool) {
	t.root = t.root.writable(t.gen)
	old, existed := t.root.delete(key, t.gen)
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
func (n *node) delete(key string, gen uint64) ([]byte, bool) {
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
			n.child(i, gen).delete(pk, gen)
		case len(n.children[i+1].items) >= degree:
			sk, sv := n.children[i+1].minItem()
			n.items[i] = item{key: sk, value: sv}
			n.child(i+1, gen).delete(sk, gen)
		default:
			n.mergeChildren(i, gen)
			n.children[i].delete(key, gen)
		}
		return old, true
	}
	if len(n.children[i].items) < degree {
		n.fill(i, gen)
		// The structure changed (rotation may even have lifted the key
		// into this node); re-dispatch once.
		return n.delete(key, gen)
	}
	return n.child(i, gen).delete(key, gen)
}

// fill gives child i at least `degree` items by borrowing from a sibling
// or merging with one.
func (n *node) fill(i int, gen uint64) {
	if i > 0 && len(n.children[i-1].items) >= degree {
		// Rotate right: left sibling's last item moves up, separator
		// moves down.
		left, child := n.child(i-1, gen), n.child(i, gen)
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
		child, right := n.child(i, gen), n.child(i+1, gen)
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
	n.mergeChildren(i, gen)
}

// mergeChildren merges child i, separator item i, and child i+1. Only
// the left child is modified.
func (n *node) mergeChildren(i int, gen uint64) {
	left, right := n.child(i, gen), n.children[i+1]
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
