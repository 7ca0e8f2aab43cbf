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
// An internal node holds its children and, as entries with empty values
// in a slab of the leaf's form, the lower bound of each subtree (every
// key under kids[i] is >= bound i and < bound i+1; bound 0 is not
// consulted). Bounds only separate subtrees and need not exist in any
// leaf, which keeps deletion rebalancing local. Only a child's split, a
// merge or a borrow changes bounds, so a copy shares its original's, the
// slab capacity-limited so that the first change to either packs them
// afresh (room): a slab with room to spare is its node's own, and so are
// the offsets with it.

const (
	// leafCap keeps a leaf copy near 0.9 KB at the benchmark's entry
	// sizes, and the index near 13 B an entry (DESIGN.md).
	leafCap     = 16
	minLeaf     = leafCap / 2
	maxChildren = 32
	minChildren = maxChildren / 2
)

// node is a leaf (its entries in slab and offs) or an internal node
// (kids, and their bounds in slab and offs): one offset an entry or a
// child.
type node struct {
	stamp uint64 // the writer that may change this node in place
	slab  []byte
	offs  []uint32
	kids  []*node
}

// leafNode is a leaf's one allocation: its header and its offsets.
type leafNode struct {
	node
	at [leafCap]uint32
}

// innerNode is an internal node's one allocation: its header and its
// children, with a slot for the one a split adds before it moves half.
type innerNode struct {
	node
	at [maxChildren + 1]*node
}

func newLeaf(w uint64) *node {
	l := &leafNode{node: node{stamp: w}}
	l.offs = l.at[:0]
	return &l.node
}

// newInner returns an internal node stamped w over kids, filed under
// the bounds in slab, which it capacity-limits, and offs.
func newInner(w uint64, kids []*node, slab []byte, offs []uint32) *node {
	c := &innerNode{node: node{stamp: w, slab: slab[:len(slab):len(slab)], offs: offs}}
	c.kids = append(c.at[:0], kids...)
	return &c.node
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

// key decodes only entry i's key: searches call it at every level.
func (n *node) key(i int) []byte {
	p := n.slab[n.offs[i]:]
	if k := int(p[0]) + 1; k <= 0x80 { // a one-byte length
		return p[1:k:k]
	}
	klen, a := binary.Uvarint(p)
	k := a + int(klen)
	return p[a:k:k]
}

// entrySize is the length of key and val's entry in a slab.
func entrySize(key, val []byte) int {
	var b [2 * binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(binary.AppendUvarint(b[:0], uint64(len(key))), uint64(len(val)))) + len(key) + len(val)
}

// pack makes c hold src's entries [from, to) but drop in a fresh slab
// with room bytes to spare, and an internal c fresh offsets too (a
// leaf's are its own). c may be src: offsets are read first.
func (c *node) pack(src *node, from, to, drop, room int) {
	slab, offs := src.slab, src.offs
	for j := from; j < to; j++ {
		if _, _, raw := entryAt(slab, offs[j]); j != drop {
			room += len(raw)
		}
	}
	c.slab, c.offs = slices.Grow([]byte(nil), room), c.offs[:0]
	if !c.leaf() {
		c.offs = make([]uint32, 0, maxChildren+1)
	}
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

// add makes key/val entry i of n, which its writer owns, behind every
// byte in the slab.
func (n *node) add(i int, key, val []byte) {
	n.room(entrySize(key, val))
	n.offs = insertAt(n.offs, i, uint32(len(n.slab)))
	n.slab = appendEntry(n.slab, key, val)
}

// room packs n's slab afresh, with size bytes and half again to spare,
// unless it has size to spare: then it, and so its offsets, are n's own.
func (n *node) room(size int) {
	if cap(n.slab)-len(n.slab) < size {
		n.pack(n, 0, len(n.offs), -1, size+len(n.slab)/2)
	}
}

func appendEntry(slab, key, val []byte) []byte {
	slab = binary.AppendUvarint(slab, uint64(len(key)))
	slab = append(slab, key...)
	slab = binary.AppendUvarint(slab, uint64(len(val)))
	return append(slab, val...)
}

// setBound files kids[i] under b, behind every byte in the slab.
func (n *node) setBound(i int, b []byte) {
	n.room(entrySize(b, nil))
	n.offs[i] = uint32(len(n.slab))
	n.slab = appendEntry(n.slab, b, nil)
}

// dropBound removes bound i from offsets room makes n's own.
func (n *node) dropBound(i int) {
	n.room(1)
	n.offs = removeAt(n.offs, i)
}

// writable returns n if writer w created it and a copy stamped w
// otherwise, a leaf without its entry drop (none if < 0). A leaf's copy
// has room bytes to spare, so the insert that usually follows does not
// allocate again; an internal node's shares n's bounds.
func (n *node) writable(w uint64, drop, room int) *node {
	switch {
	case n.leaf() && n.stamp != w:
		return n.copyLeaf(w, 0, len(n.offs), drop, room)
	case n.leaf() && drop >= 0:
		n.offs = removeAt(n.offs, drop)
	case n.stamp != w:
		return newInner(w, n.kids, n.slab, n.offs)
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
	lo, hi := 1, len(n.offs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.key(mid), key) <= 0 {
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
		n = n.kids[n.childIndex(key)]
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
		left = build(t.stamp, []*node{left, right})
	}
	t.root = left
	if added {
		t.size++
	}
}

// put inserts into n, or into a copy when writer w does not own n. It
// returns the node that now stands for n, a right sibling when the node
// split, filed under its first key (a leaf's, or an internal node's
// bound 0), and whether the key was new.
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
	cl, cr, added := n.kids[i].put(w, key, val)
	left = n.writable(w, -1, 0)
	left.kids[i] = cl
	if cr == nil {
		return left, nil, added
	}
	left.kids = insertAt(left.kids, i+1, cr)
	left.add(i+1, cr.key(0), nil)
	if len(left.kids) <= maxChildren {
		return left, nil, added
	}
	// Move the upper half, bounds packed afresh, to a right sibling. The
	// bounds left keeps are its own (the add above made them so).
	const mid = minChildren
	right = newInner(w, left.kids[mid:], nil, nil)
	right.pack(left, mid, len(left.offs), -1, 0)
	clear(left.kids[mid:])
	left.kids, left.offs = left.kids[:mid], left.offs[:mid]
	return left, right, added
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
		root = root.kids[0]
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
	child, found := n.kids[i].del(w, key)
	if !found {
		return n, false
	}
	c := n.writable(w, -1, 0)
	c.kids[i] = child
	c.fixChild(w, i)
	return c, true
}

// fixChild rebalances kids[i], which w owns as it owns n, if it
// underflows, by borrowing from or merging with an adjacent sibling.
func (n *node) fixChild(w uint64, i int) {
	child := n.kids[i]
	minFill := minChildren
	if child.leaf() {
		minFill = minLeaf
	}
	switch {
	case len(child.offs) >= minFill:
	case i > 0 && len(n.kids[i-1].offs) > minFill:
		n.borrowLeft(w, i)
	case i < len(n.kids)-1 && len(n.kids[i+1].offs) > minFill:
		n.borrowRight(w, i)
	case i > 0:
		n.merge(w, i-1)
	default:
		n.merge(w, i)
	}
}

// borrowLeft moves the last entry/subtree of kids[i-1] into kids[i].
func (n *node) borrowLeft(w uint64, i int) {
	child := n.kids[i]
	if child.leaf() {
		src := n.kids[i-1]
		k, v, _ := src.entry(len(src.offs) - 1)
		n.kids[i-1] = src.writable(w, len(src.offs)-1, 0)
		child.add(0, k, v)
		n.setBound(i, k)
		return
	}
	// The child's first subtree gets the bound the parent knew the child
	// by, and the moved subtree's bound becomes the child's.
	left := n.own(w, i-1)
	last := len(left.kids) - 1
	moved := left.key(last)
	child.kids = insertAt(child.kids, 0, left.kids[last])
	child.setBound(0, n.key(i))
	child.add(0, moved, nil)
	n.setBound(i, moved)
	left.kids, left.offs = removeAt(left.kids, last), left.offs[:last]
}

// borrowRight moves the first entry/subtree of kids[i+1] into kids[i].
func (n *node) borrowRight(w uint64, i int) {
	child := n.kids[i]
	if child.leaf() {
		src := n.kids[i+1]
		k, v, _ := src.entry(0)
		src = src.writable(w, 0, 0)
		n.kids[i+1] = src
		child.add(len(child.offs), k, v)
		n.setBound(i+1, src.key(0))
		return
	}
	right := n.own(w, i+1)
	child.kids = append(child.kids, right.kids[0])
	child.add(len(child.offs), n.key(i+1), nil)
	n.setBound(i+1, right.key(1))
	right.kids = removeAt(right.kids, 0)
	right.dropBound(0)
}

// merge combines kids[i] and kids[i+1] into one node: the right one's
// entries, or its children under its bounds but the first, which takes
// the parent's.
func (n *node) merge(w uint64, i int) {
	right := n.kids[i+1]
	left := n.kids[i].writable(w, -1, len(right.slab))
	n.kids[i] = left
	for j := range right.offs {
		k, v, _ := right.entry(j)
		if j == 0 && !right.leaf() {
			k = n.key(i + 1)
		}
		left.add(len(left.offs), k, v)
	}
	left.kids = append(left.kids, right.kids...) // nil to nil for leaves
	n.kids = removeAt(n.kids, i+1)
	n.dropBound(i + 1)
}

// own makes internal node kids[i] writable by w, in a node w already
// owns.
func (n *node) own(w uint64, i int) *node {
	c := n.kids[i].writable(w, -1, 0)
	n.kids[i] = c
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
		if hi != nil && i > 0 && bytes.Compare(n.key(i), hi) >= 0 {
			return false
		}
		cLo := lo
		if i > start {
			cLo = nil // only the first visited child needs the lower bound
		}
		if !n.kids[i].ascend(cLo, hi, fn) {
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
	leaves uint64  // leaves still to open (the entries spread evenly)
	left   uint64  // entries still to come
	leaf   *node   // the open leaf
	want   int     // how many entries it gets
	from   int     // where in buf it starts
	level  []*node // the finished leaves
}

func newLoader(count uint64, buf []byte) *loader {
	leaves := count/leafCap + 1 // sized for no more than buf holds: the count may be forged
	return &loader{t: tree{}.begin(), buf: buf, leaves: leaves, left: count, level: make([]*node, 0, min(leaves, uint64(len(buf))/(2*leafCap)+1))}
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
		l.level = append(l.level, l.leaf)
		l.leaf, l.leaves, l.left = nil, l.leaves-1, l.left-uint64(l.want)
	}
}

// tree returns the tree.
func (l *loader) tree() tree {
	if len(l.level) > 0 {
		l.t.root = build(l.t.stamp, l.level)
	}
	return l.t
}

// build returns the root of the internal levels stamped w over level,
// each node's children filed under their first keys in its own slab, a
// capacity-limited slice of one a level.
func build(w uint64, level []*node) *node {
	for len(level) > 1 {
		size := 0
		for _, c := range level {
			size += entrySize(c.key(0), nil)
		}
		slab, offs := make([]byte, 0, size), make([]uint32, 0, len(level))
		groups := (len(level) + maxChildren - 1) / maxChildren
		up := make([]*node, 0, groups)
		for ; groups > 0; groups-- {
			n := (len(level) + groups - 1) / groups
			from, at := len(slab), len(offs)
			for _, c := range level[:n] {
				offs = append(offs, uint32(len(slab)-from))
				slab = appendEntry(slab, c.key(0), nil)
			}
			up = append(up, newInner(w, level[:n], slab[from:], offs[at:len(offs):len(offs)]))
			level = level[n:]
		}
		level = up
	}
	return level[0]
}

// insertAt inserts e at s[i], in s's spare capacity: a node has room for
// the entry or child it takes before it splits.
func insertAt[E any](s []E, i int, e E) []E {
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
