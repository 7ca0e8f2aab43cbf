package storedb

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// The in-memory index is a copy-on-write B+tree whose nodes belong to
// the writer that created them. Every node carries the stamp of that
// writer; a tree value carries the newest stamp of its lineage, and
// begin opens it for a new writer under a stamp no node reachable from
// it has. put and del then follow the LMDB/bbolt dirty-page rule: a
// node with the writer's own stamp is private to it and is changed in
// place; any other is shared with an earlier version of the tree and is
// copied first, once, after which the copy is the writer's. A writer
// thus copies each level of a path at most once however many keys it
// writes under it, and a tree built from nothing (WAL replay) copies
// nothing; a snapshot load builds its tree bottom-up (loader).
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
// A leaf is a write-once byte slab of entries in the snapshot's form and
// the offsets of the live ones (DESIGN.md, In-memory index): every key
// and value it hands out stays as it was while anyone holds it.
//
// Internal nodes hold children, each with the lower bound of its
// subtree (every key under kids[i].child is >= kids[i].key and <
// kids[i+1].key; kids[0].key is not consulted). Bounds only separate
// subtrees and need not exist in any leaf, which keeps deletion
// rebalancing local.

const (
	// leafCap keeps a leaf copy near 0.9 KB at the benchmark's entry
	// sizes, and the index near 13 B an entry (DESIGN.md).
	leafCap     = 16
	minLeaf     = leafCap / 2
	maxChildren = 32
	minChildren = maxChildren / 2
)

type kid struct {
	key   []byte // lower bound of child's keys
	child *node
}

// node is a leaf (slab and offs) or an internal node (kids).
type node struct {
	stamp uint64 // the writer that may change this node in place
	slab  []byte
	offs  []uint32
	kids  []kid
}

// leafNode is a leaf's one allocation: its header and its offsets.
type leafNode struct {
	node
	at [leafCap]uint32
}

func newLeaf(w uint64) *node {
	l := &leafNode{node: node{stamp: w}}
	l.offs = l.at[:0]
	return &l.node
}

// tree is one version of the B+tree. The zero value is an empty tree.
// Get and Ascend leave the receiver and everything reachable from it
// untouched; put and del, which copy key and val into the tree, are for
// a tree returned by begin that has not been shared since.
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

// fill returns what the min/max constraints apply to: entries for
// leaves, children for internal nodes (a node has only one of the two).
func (n *node) fill() int { return len(n.offs) + len(n.kids) }

// entryAt decodes the entry at off in slab, each part capacity-limited.
func entryAt(slab []byte, off uint32) (key, val, raw []byte) {
	p := slab[off:]
	klen, a := binary.Uvarint(p)
	k := a + int(klen)
	vlen, b := binary.Uvarint(p[k:])
	v, end := k+b, k+b+int(vlen)
	return p[a:k:k], p[v:end:end], p[:end:end]
}

func (n *node) entry(i int) (key, val, raw []byte) { return entryAt(n.slab, n.offs[i]) }

func (n *node) key(i int) []byte {
	k, _, _ := n.entry(i)
	return k
}

// entrySize is the length of key and val's entry in a slab.
func entrySize(key, val []byte) int {
	var b [2 * binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(binary.AppendUvarint(b[:0], uint64(len(key))), uint64(len(val)))) + len(key) + len(val)
}

// pack makes leaf c hold src's entries [from, to) but drop in a fresh
// slab with room bytes to spare. c may be src: offsets are read first.
func (c *node) pack(src *node, from, to, drop, room int) {
	slab, offs := src.slab, src.offs
	for j := from; j < to; j++ {
		if _, _, raw := entryAt(slab, offs[j]); j != drop {
			room += len(raw)
		}
	}
	c.slab, c.offs = slices.Grow([]byte(nil), room), c.offs[:0]
	for j := from; j < to; j++ {
		if _, _, raw := entryAt(slab, offs[j]); j != drop {
			c.offs = append(c.offs, uint32(len(c.slab)))
			c.slab = append(c.slab, raw...)
		}
	}
}

func (n *node) copyLeaf(w uint64, from, to, drop, room int) *node {
	c := newLeaf(w)
	c.pack(n, from, to, drop, room)
	return c
}

// add makes key/val entry i of leaf n, which its writer owns, behind
// every byte in the slab (packed first, with half again to spare, if
// full).
func (n *node) add(i int, key, val []byte) {
	if size := entrySize(key, val); cap(n.slab)-len(n.slab) < size {
		n.pack(n, 0, len(n.offs), -1, size+len(n.slab)/2)
	}
	n.offs = insertAt(n.offs, i, uint32(len(n.slab)), leafCap)
	n.slab = binary.AppendUvarint(n.slab, uint64(len(key)))
	n.slab = append(n.slab, key...)
	n.slab = binary.AppendUvarint(n.slab, uint64(len(val)))
	n.slab = append(n.slab, val...)
}

// writable returns n if writer w created it and a copy stamped w
// otherwise, a leaf without its entry drop (none if < 0). A leaf's copy
// has room bytes to spare and an internal node's room for one more
// child, so the insert that usually follows does not allocate again.
func (n *node) writable(w uint64, drop, room int) *node {
	switch {
	case n.leaf() && n.stamp != w:
		return n.copyLeaf(w, 0, len(n.offs), drop, room)
	case n.leaf() && drop >= 0:
		n.offs = removeAt(n.offs, drop)
	case n.stamp != w:
		c := &node{stamp: w, kids: make([]kid, len(n.kids), len(n.kids)+1)}
		copy(c.kids, n.kids)
		return c
	}
	return n
}

// search returns the index of the first entry whose key is >= key, and
// whether it is an exact match.
func (n *node) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.offs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact := lo < len(n.offs) && bytes.Equal(n.key(lo), key)
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
			_, v, _ := n.entry(i)
			return v, true
		}
		n = n.kids[n.childIndex(key)].child
	}
	return nil, false
}

// put sets key to val in t, which its caller has begun.
func (t *tree) put(key, val []byte) {
	if t.root == nil {
		t.root = newLeaf(t.stamp)
		t.root.add(0, key, val)
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
		return n.key(0)
	}
	return n.kids[0].key
}

// put inserts into n, or into a copy when writer w does not own n. It
// returns the node that now stands for n, a right sibling when the node
// split, and whether the key was new.
func (n *node) put(w uint64, key, val []byte) (left, right *node, added bool) {
	if n.leaf() {
		i, exact := n.search(key)
		drop := -1
		switch {
		case exact:
			drop = i
		case len(n.offs) == leafCap:
			left, right = n.splitLeaf(w, i, key, val)
			return left, right, true
		}
		left = n.writable(w, drop, entrySize(key, val))
		left.add(i, key, val)
		return left, nil, !exact
	}

	i := n.childIndex(key)
	cl, cr, added := n.kids[i].child.put(w, key, val)
	left = n.writable(w, -1, 0)
	left.setChild(i, cl)
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

// splitLeaf returns full leaf n with key/val added at i as two halves.
func (n *node) splitLeaf(w uint64, i int, key, val []byte) (left, right *node) {
	const mid = (leafCap + 1) / 2 // the left half's entries
	size := entrySize(key, val)
	if i < mid {
		left, right = n.copyLeaf(w, 0, mid-1, -1, size), n.copyLeaf(w, mid-1, leafCap, -1, 0)
		left.add(i, key, val)
	} else {
		left, right = n.copyLeaf(w, 0, mid, -1, 0), n.copyLeaf(w, mid, leafCap, -1, size)
		right.add(i-mid, key, val)
	}
	return left, right
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
	if root.leaf() && len(root.offs) == 0 {
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
		return n.writable(w, i, 0), true
	}
	i := n.childIndex(key)
	child, found := n.kids[i].child.del(w, key)
	if !found {
		return n, false
	}
	c := n.writable(w, -1, 0)
	c.setChild(i, child)
	c.fixChild(w, i)
	return c, true
}

// setChild files child at kids[i], a leaf under its first key (still a
// bound) so that no bound pins a slab the leaf has left.
func (n *node) setChild(i int, child *node) {
	n.kids[i].child = child
	if child.leaf() {
		n.kids[i].key = child.key(0)
	}
}

// fixChild rebalances kids[i].child, which w owns as it owns n, if it
// underflows, by borrowing from or merging with an adjacent sibling.
func (n *node) fixChild(w uint64, i int) {
	child := n.kids[i].child
	minFill := minChildren
	if child.leaf() {
		minFill = minLeaf
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

// borrowLeft moves the last entry/subtree of kids[i-1] into kids[i].
func (n *node) borrowLeft(w uint64, i int) {
	child := n.kids[i].child
	if child.leaf() {
		src := n.kids[i-1].child
		k, v, _ := src.entry(len(src.offs) - 1)
		n.setChild(i-1, src.writable(w, len(src.offs)-1, 0))
		child.add(0, k, v)
		n.setChild(i, child)
		return
	}
	// The child's first subtree gets the bound the parent knew the child
	// by, and the moved subtree's bound becomes the child's.
	left := n.own(w, i-1)
	last := len(left.kids) - 1
	child.kids[0].key = n.kids[i].key
	child.kids = insertAt(child.kids, 0, left.kids[last], maxChildren)
	n.kids[i].key = left.kids[last].key
	left.kids = removeAt(left.kids, last)
}

// borrowRight moves the first entry/subtree of kids[i+1] into kids[i].
func (n *node) borrowRight(w uint64, i int) {
	child := n.kids[i].child
	if child.leaf() {
		src := n.kids[i+1].child
		k, v, _ := src.entry(0)
		n.setChild(i+1, src.writable(w, 0, 0))
		child.add(len(child.offs), k, v)
		n.setChild(i, child)
		return
	}
	right := n.own(w, i+1)
	first := right.kids[0]
	first.key = n.kids[i+1].key
	child.kids = insertAt(child.kids, len(child.kids), first, maxChildren)
	right.kids = removeAt(right.kids, 0)
	n.kids[i+1].key = right.kids[0].key
}

// merge combines kids[i] and kids[i+1] into one node.
func (n *node) merge(w uint64, i int) {
	right := n.kids[i+1].child
	if right.leaf() {
		left := n.kids[i].child.writable(w, -1, len(right.slab))
		for j := range right.offs {
			k, v, _ := right.entry(j)
			left.add(len(left.offs), k, v)
		}
		n.setChild(i, left)
	} else {
		left := n.own(w, i)
		at := len(left.kids)
		left.kids = append(left.kids, right.kids...)
		left.kids[at].key = n.kids[i+1].key
	}
	n.kids = removeAt(n.kids, i+1)
}

// own makes internal node kids[i].child writable by w, in a node w
// already owns.
func (n *node) own(w uint64, i int) *node {
	c := n.kids[i].child.writable(w, -1, 0)
	n.kids[i].child = c
	return c
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
		for i := start; i < len(n.offs); i++ {
			k, v, _ := n.entry(i)
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return false
			}
			if !fn(k, v) {
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

// loader builds a tree bottom-up from entries in ascending key order in
// one buffer: leaves as full as the count allows, each a capacity-limited
// slice of the buffer, then each internal level once.
type loader struct {
	t      tree
	buf    []byte
	leaves uint64 // leaves still to open (the entries spread evenly)
	left   uint64 // entries still to come
	leaf   *node  // the open leaf
	want   int    // how many entries it gets
	from   int    // where in buf it starts
	level  []kid  // the finished leaves, under their bounds
}

func newLoader(count uint64, buf []byte) *loader {
	leaves := count/leafCap + 1 // sized for no more than buf holds: the count may be forged
	return &loader{t: tree{}.begin(), buf: buf, leaves: leaves, left: count, level: make([]kid, 0, min(leaves, uint64(len(buf))/(2*leafCap)+1))}
}

// add takes the next entry, buf[start:end].
func (l *loader) add(start, end int) {
	if l.leaf == nil {
		l.want = int((l.left-1)/l.leaves + 1)
		l.leaf, l.from = newLeaf(l.t.stamp), start
	}
	l.leaf.offs = append(l.leaf.offs, uint32(start-l.from))
	l.t.size++
	if len(l.leaf.offs) == l.want {
		l.leaf.slab = l.buf[l.from:end:end]
		l.level = append(l.level, kid{l.leaf.key(0), l.leaf})
		l.leaf, l.leaves, l.left = nil, l.leaves-1, l.left-uint64(l.want)
	}
}

// tree returns the tree: each internal level a slice of the one below.
func (l *loader) tree() tree {
	level := l.level
	for len(level) > 1 {
		groups := (len(level) + maxChildren - 1) / maxChildren
		up := make([]kid, 0, groups)
		for ; groups > 0; groups-- {
			n := (len(level) + groups - 1) / groups
			up = append(up, kid{level[0].key, &node{stamp: l.t.stamp, kids: level[:n:n]}})
			level = level[n:]
		}
		level = up
	}
	if len(level) == 1 {
		l.t.root = level[0].child
	}
	return l.t
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
