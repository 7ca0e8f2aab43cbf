package storedb

import "bytes"

// The in-memory index is a copy-on-write B+tree whose nodes belong to
// the writer that created them. Every node carries the stamp of that
// writer; a tree value carries the newest stamp of its lineage, and
// begin opens it for a new writer under a stamp no node reachable from
// it has. put and del then follow the LMDB/bbolt dirty-page rule: a
// node with the writer's own stamp is private to it and is changed in
// place; any other is shared with an earlier version of the tree and is
// copied first, once, after which the copy is the writer's. A writer
// thus copies each level of a path at most once however many keys it
// writes under it, and a tree built from nothing (snapshot load, WAL
// replay) copies nothing.
//
// Readers keep cheap, consistent snapshots because ownership ends
// before anyone else sees the result: a tree value is published (in
// DB.current, DB.staged or a commit group) only when its writer is
// finished, and the next writer begins under a stamp none of the
// published nodes carry. No node reachable from a published root is
// ever written again. A writer that iterates its own tree (Bucket.Range
// on a write Tx) begins again first, so that what it owned is shared
// and a write from the callback copies the node the iteration is on.
//
// Leaves hold key/value items; internal nodes hold children, each with
// the lower bound of its subtree (every key under kids[i].child is
// >= kids[i].key and < kids[i+1].key; kids[0].key is not consulted).
// Bounds only separate subtrees and need not exist in any leaf, which
// keeps deletion rebalancing local.

const (
	maxLeafItems = 32
	minLeafItems = maxLeafItems / 2
	maxChildren  = 32
	minChildren  = maxChildren / 2
)

type item struct{ key, val []byte }

type kid struct {
	key   []byte // lower bound of child's keys
	child *node
}

// node is a header and one slice of entries: items in a leaf, kids in
// an internal node (nil in a leaf).
type node struct {
	stamp uint64 // the writer that may change this node in place
	items []item
	kids  []kid
}

// tree is one version of the B+tree. The zero value is an empty tree.
// Get, Ascend, Put and Delete leave the receiver and everything
// reachable from it untouched; put and del are for a tree returned by
// begin that has not been shared since.
type tree struct {
	root  *node
	size  int
	stamp uint64 // newest writer in this tree's lineage
}

// begin returns t opened for a new writer. Every node reachable from t
// was stamped by an earlier writer of its lineage, so the new writer
// owns none of them yet.
func (t tree) begin() tree {
	t.stamp++
	return t
}

func (n *node) leaf() bool { return n.kids == nil }

// fill returns the quantity the min/max constraints apply to: items for
// leaves, children for internal nodes. A node has only one of the two.
func (n *node) fill() int { return len(n.items) + len(n.kids) }

// writable returns n if writer w created it and a copy stamped w
// otherwise. The copy has room for one more entry, so the insert that
// usually follows does not allocate again.
func (n *node) writable(w uint64) *node {
	if n.stamp == w {
		return n
	}
	c := &node{stamp: w}
	if n.leaf() {
		c.items = make([]item, len(n.items), len(n.items)+1)
		copy(c.items, n.items)
	} else {
		c.kids = make([]kid, len(n.kids), len(n.kids)+1)
		copy(c.kids, n.kids)
	}
	return c
}

// own makes kids[i].child writable by w, in a node w already owns.
func (n *node) own(w uint64, i int) *node {
	c := n.kids[i].child.writable(w)
	n.kids[i].child = c
	return c
}

// search returns the index of the first item whose key is >= key, and
// whether it is an exact match.
func (n *node) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.items[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact := lo < len(n.items) && bytes.Equal(n.items[lo].key, key)
	return lo, exact
}

// childIndex returns the child to descend into when looking for key:
// the last one whose lower bound is <= key.
func (n *node) childIndex(key []byte) int {
	lo, hi := 1, len(n.kids)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.kids[mid].key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

func (t tree) Len() int { return t.size }

// Get returns the value stored under key and whether it was present.
// The returned slice must not be modified by the caller.
func (t tree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for n != nil {
		if n.leaf() {
			i, exact := n.search(key)
			if !exact {
				return nil, false
			}
			return n.items[i].val, true
		}
		n = n.kids[n.childIndex(key)].child
	}
	return nil, false
}

// Put returns a tree with key set to val, as a writer of its own. Key
// and val are stored as-is; callers that retain their buffers must copy
// first.
func (t tree) Put(key, val []byte) tree {
	t = t.begin()
	t.put(key, val)
	return t
}

// put sets key to val in t, which its caller has begun.
func (t *tree) put(key, val []byte) {
	if t.root == nil {
		t.root = &node{stamp: t.stamp, items: []item{{key, val}}}
		t.size = 1
		return
	}
	left, right, added := t.root.put(t.stamp, key, val)
	if right != nil {
		left = &node{stamp: t.stamp, kids: []kid{{child: left}, {right.lowerBound(), right}}}
	}
	t.root = left
	if added {
		t.size++
	}
}

// lowerBound returns the bound a parent files a freshly split-off right
// sibling under: its first key.
func (n *node) lowerBound() []byte {
	if n.leaf() {
		return n.items[0].key
	}
	return n.kids[0].key
}

// put inserts into n, or into a copy when writer w does not own n. It
// returns the node that now stands for n, a right sibling when the node
// split, and whether the key was new.
func (n *node) put(w uint64, key, val []byte) (left, right *node, added bool) {
	if n.leaf() {
		i, exact := n.search(key)
		switch {
		case exact:
			// The key is replaced with the value: the two usually share
			// one allocation (Bucket.Put), which the old key would pin.
			left = n.writable(w)
			left.items[i] = item{key, val}
			return left, nil, false
		case len(n.items) < maxLeafItems:
			left = n.writable(w)
			left.items = insertAt(left.items, i, item{key, val}, maxLeafItems)
			return left, nil, true
		}
		left = n
		if n.stamp != w {
			left = &node{stamp: w}
		}
		li, ri := splitInsert(n.items, i, item{key, val})
		left.items = li
		return left, &node{stamp: w, items: ri}, true
	}

	i := n.childIndex(key)
	cl, cr, added := n.kids[i].child.put(w, key, val)
	left = n.writable(w)
	left.kids[i].child = cl
	switch {
	case cr == nil:
		return left, nil, added
	case len(left.kids) < maxChildren:
		left.kids = insertAt(left.kids, i+1, kid{cr.lowerBound(), cr}, maxChildren)
		return left, nil, added
	}
	lk, rk := splitInsert(left.kids, i+1, kid{cr.lowerBound(), cr})
	left.kids = lk
	return left, &node{stamp: w, kids: rk}, added
}

// Delete returns a tree without key, as a writer of its own, and
// whether the key was present.
func (t tree) Delete(key []byte) (tree, bool) {
	t = t.begin()
	found := t.del(key)
	return t, found
}

// del removes key from t, which its caller has begun, and reports
// whether it was present.
func (t *tree) del(key []byte) bool {
	if t.root == nil {
		return false
	}
	root, found := t.root.del(t.stamp, key)
	if !found {
		return false
	}
	// Collapse trivial roots.
	for !root.leaf() && len(root.kids) == 1 {
		root = root.kids[0].child
	}
	if root.leaf() && len(root.items) == 0 {
		root = nil
	}
	t.root = root
	t.size--
	return true
}

// del removes key from n, or from a copy when writer w does not own n,
// rebalancing children that underflow. The returned node may itself be
// under-full; the caller fixes that. A miss copies nothing.
func (n *node) del(w uint64, key []byte) (*node, bool) {
	if n.leaf() {
		i, exact := n.search(key)
		if !exact {
			return n, false
		}
		c := n.writable(w)
		c.items = removeAt(c.items, i)
		return c, true
	}
	i := n.childIndex(key)
	child, found := n.kids[i].child.del(w, key)
	if !found {
		return n, false
	}
	c := n.writable(w)
	c.kids[i].child = child
	c.fixChild(w, i)
	return c, true
}

// fixChild rebalances kids[i].child, which w owns as it owns n, if it
// underflows, by borrowing from or merging with an adjacent sibling.
func (n *node) fixChild(w uint64, i int) {
	child := n.kids[i].child
	minFill := minChildren
	if child.leaf() {
		minFill = minLeafItems
	}
	switch {
	case child.fill() >= minFill:
	case i > 0 && n.kids[i-1].child.fill() > minFill:
		n.borrowLeft(w, i)
	case i < len(n.kids)-1 && n.kids[i+1].child.fill() > minFill:
		n.borrowRight(w, i)
	case i > 0:
		n.merge(w, i-1)
	default:
		n.merge(w, i)
	}
}

// borrowLeft moves the last item/subtree of kids[i-1] into kids[i].
func (n *node) borrowLeft(w uint64, i int) {
	left, child := n.own(w, i-1), n.kids[i].child
	if child.leaf() {
		last := len(left.items) - 1
		child.items = insertAt(child.items, 0, left.items[last], maxLeafItems)
		left.items = removeAt(left.items, last)
		n.kids[i].key = child.items[0].key
		return
	}
	// The child's first subtree gets the bound the parent knew the child
	// by, and the moved subtree's bound becomes the child's.
	last := len(left.kids) - 1
	child.kids[0].key = n.kids[i].key
	child.kids = insertAt(child.kids, 0, left.kids[last], maxChildren)
	n.kids[i].key = left.kids[last].key
	left.kids = removeAt(left.kids, last)
}

// borrowRight moves the first item/subtree of kids[i+1] into kids[i].
func (n *node) borrowRight(w uint64, i int) {
	child, right := n.kids[i].child, n.own(w, i+1)
	if child.leaf() {
		child.items = insertAt(child.items, len(child.items), right.items[0], maxLeafItems)
		right.items = removeAt(right.items, 0)
		n.kids[i+1].key = right.items[0].key
		return
	}
	first := right.kids[0]
	first.key = n.kids[i+1].key
	child.kids = insertAt(child.kids, len(child.kids), first, maxChildren)
	right.kids = removeAt(right.kids, 0)
	n.kids[i+1].key = right.kids[0].key
}

// merge combines kids[i] and kids[i+1] into one node.
func (n *node) merge(w uint64, i int) {
	left, right := n.own(w, i), n.kids[i+1].child
	if left.leaf() {
		left.items = append(left.items, right.items...)
	} else {
		at := len(left.kids)
		left.kids = append(left.kids, right.kids...)
		left.kids[at].key = n.kids[i+1].key
	}
	n.kids = removeAt(n.kids, i+1)
}

// Ascend calls fn for every key/value pair with lo <= key < hi, in key
// order. A nil lo means from the start; a nil hi means to the end.
// Iteration stops early when fn returns false.
func (t tree) Ascend(lo, hi []byte, fn func(k, v []byte) bool) {
	if t.root != nil {
		t.root.ascend(lo, hi, fn)
	}
}

func (n *node) ascend(lo, hi []byte, fn func(k, v []byte) bool) bool {
	if n.leaf() {
		start := 0
		if lo != nil {
			start, _ = n.search(lo)
		}
		for _, it := range n.items[start:] {
			if hi != nil && bytes.Compare(it.key, hi) >= 0 {
				return false
			}
			if !fn(it.key, it.val) {
				return false
			}
		}
		return true
	}
	start := 0
	if lo != nil {
		start = n.childIndex(lo)
	}
	for i := start; i < len(n.kids); i++ {
		// Prune subtrees entirely at or above hi.
		if hi != nil && i > 0 && bytes.Compare(n.kids[i].key, hi) >= 0 {
			return false
		}
		cLo := lo
		if i > start {
			cLo = nil // only the first visited child needs the lower bound
		}
		if !n.kids[i].child.ascend(cLo, hi, fn) {
			return false
		}
	}
	return true
}

// depth returns the height of the tree (0 for empty); used in tests.
func (t tree) depth() int {
	d := 0
	for n := t.root; n != nil; {
		d++
		if n.leaf() {
			break
		}
		n = n.kids[0].child
	}
	return d
}

// insertAt inserts e at s[i]. A copy's spare slot takes one insert
// without allocating; a node that takes more grows once, to full, the
// most it holds before it splits.
func insertAt[E any](s []E, i int, e E, full int) []E {
	if len(s) == cap(s) {
		g := make([]E, len(s), full)
		copy(g, s)
		s = g
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// removeAt removes s[i] in place, clearing the vacated slot so that it
// pins nothing.
func removeAt[E any](s []E, i int) []E {
	copy(s[i:], s[i+1:])
	var zero E
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// splitInsert returns s with e inserted at i as two fresh halves, each
// with one spare slot; s itself is left as it was.
func splitInsert[E any](s []E, i int, e E) (left, right []E) {
	mid := (len(s) + 1) / 2
	left = make([]E, 0, mid+1)
	right = make([]E, 0, len(s)+1-mid+1)
	if i < mid {
		left = append(append(append(left, s[:i]...), e), s[i:mid-1]...)
		right = append(right, s[mid-1:]...)
	} else {
		left = append(left, s[:mid]...)
		right = append(append(append(right, s[mid:i]...), e), s[i:]...)
	}
	return left, right
}
