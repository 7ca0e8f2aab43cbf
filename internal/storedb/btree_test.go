package storedb

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

// Put returns a tree with key set to val, as a writer of its own.
func (t tree) Put(key, val []byte) tree {
	t = t.begin()
	t.put(key, val)
	return t
}

// Delete returns a tree without key, as a writer of its own, and
// whether the key was present.
func (t tree) Delete(key []byte) (tree, bool) {
	t = t.begin()
	found := t.del(key)
	return t, found
}

// depth returns the height of the tree (0 for empty).
func (t tree) depth() int {
	d := 0
	for n := t.root; n != nil; {
		d++
		if n.leaf() {
			break
		}
		n = n.kids[0]
	}
	return d
}

func TestTreeEmpty(t *testing.T) {
	var tr tree
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree reported a hit")
	}
	tr.Ascend(nil, nil, func(k, v []byte) bool {
		t.Fatal("Ascend on empty tree visited a pair")
		return false
	})
	if next, found := tr.Delete([]byte("x")); found || next.Len() != 0 {
		t.Fatal("Delete on empty tree claimed success")
	}
}

func TestTreePutGet(t *testing.T) {
	var tr tree
	const n = 1000
	for i := 0; i < n; i++ {
		tr = tr.Put(key(i), val(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := tr.Get(key(i))
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), got, ok)
		}
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("Get reported a hit for a missing key")
	}
}

func TestTreeOverwrite(t *testing.T) {
	var tr tree
	tr = tr.Put([]byte("k"), []byte("v1"))
	tr = tr.Put([]byte("k"), []byte("v2"))
	if tr.Len() != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", tr.Len())
	}
	got, _ := tr.Get([]byte("k"))
	if string(got) != "v2" {
		t.Fatalf("Get = %q, want v2", got)
	}
}

func TestTreeImmutability(t *testing.T) {
	var t0 tree
	for i := 0; i < 200; i++ {
		t0 = t0.Put(key(i), val(i))
	}
	t1 := t0.Put(key(500), val(500))
	t2, found := t0.Delete(key(100))
	if !found {
		t.Fatal("Delete missed an existing key")
	}

	// The original snapshot is unaffected by either descendant.
	if t0.Len() != 200 {
		t.Fatalf("t0.Len = %d, want 200", t0.Len())
	}
	if _, ok := t0.Get(key(500)); ok {
		t.Fatal("t0 sees key added to t1")
	}
	if _, ok := t0.Get(key(100)); !ok {
		t.Fatal("t0 lost key deleted from t2")
	}
	if _, ok := t1.Get(key(500)); !ok {
		t.Fatal("t1 lost its own insert")
	}
	if _, ok := t2.Get(key(100)); ok {
		t.Fatal("t2 still sees its own delete")
	}
}

func TestTreeOrderedIteration(t *testing.T) {
	var tr tree
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, i := range perm {
		tr = tr.Put(key(i), val(i))
	}
	var got [][]byte
	tr.Ascend(nil, nil, func(k, v []byte) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if len(got) != 500 {
		t.Fatalf("visited %d keys, want 500", len(got))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("iteration out of order at %d: %s >= %s", i, got[i-1], got[i])
		}
	}
}

func TestTreeRangeBounds(t *testing.T) {
	var tr tree
	for i := 0; i < 100; i++ {
		tr = tr.Put(key(i), val(i))
	}
	var visited []string
	tr.Ascend(key(10), key(20), func(k, v []byte) bool {
		visited = append(visited, string(k))
		return true
	})
	if len(visited) != 10 {
		t.Fatalf("range visited %d keys, want 10: %v", len(visited), visited)
	}
	if visited[0] != string(key(10)) || visited[9] != string(key(19)) {
		t.Fatalf("range bounds wrong: first=%s last=%s", visited[0], visited[9])
	}
}

func TestTreeAscendEarlyStop(t *testing.T) {
	var tr tree
	for i := 0; i < 100; i++ {
		tr = tr.Put(key(i), val(i))
	}
	count := 0
	tr.Ascend(nil, nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d, want 7", count)
	}
}

func TestTreeDeleteAll(t *testing.T) {
	var tr tree
	const n = 777 // enough for several levels
	for i := 0; i < n; i++ {
		tr = tr.Put(key(i), val(i))
	}
	if d := tr.depth(); d < 2 {
		t.Fatalf("tree depth = %d, want >= 2 to exercise rebalancing", d)
	}
	// Delete in an order that exercises merges from both ends.
	order := rand.New(rand.NewSource(2)).Perm(n)
	for idx, i := range order {
		var found bool
		tr, found = tr.Delete(key(i))
		if !found {
			t.Fatalf("Delete(%s) missed", key(i))
		}
		if tr.Len() != n-idx-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), idx+1)
		}
	}
	if tr.root != nil {
		t.Fatal("root not nil after deleting everything")
	}
}

func TestTreeDeleteMissing(t *testing.T) {
	var tr tree
	for i := 0; i < 50; i++ {
		tr = tr.Put(key(i), val(i))
	}
	next, found := tr.Delete([]byte("nope"))
	if found {
		t.Fatal("Delete of a missing key reported found")
	}
	if next.Len() != 50 {
		t.Fatalf("Len changed on missing delete: %d", next.Len())
	}
}

// checkInvariants walks the tree verifying structural invariants: key
// order within leaves, bounds that strictly ascend, each no greater than
// its subtree's first key, and separate subtrees, fill constraints (except
// root), uniform leaf depth, and that no node is stamped past the tree
// (the next writer's stamp must be one no reachable node carries).
func checkInvariants(t *testing.T, tr tree) {
	t.Helper()
	if tr.root == nil {
		return
	}
	leafDepth := -1
	inBounds := func(k, lo, hi []byte, depth int) {
		if lo != nil && bytes.Compare(k, lo) < 0 {
			t.Fatalf("key below subtree bound at depth %d", depth)
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			t.Fatalf("key above subtree bound at depth %d", depth)
		}
	}
	var walk func(n *node, depth int, lo, hi []byte)
	walk = func(n *node, depth int, lo, hi []byte) {
		if n.stamp > tr.stamp {
			t.Fatalf("node stamped %d in a tree at %d", n.stamp, tr.stamp)
		}
		if n.leaf() {
			for i := range n.offs {
				if i > 0 && bytes.Compare(n.key(i-1), n.key(i)) >= 0 {
					t.Fatalf("leaf keys out of order at depth %d", depth)
				}
				inBounds(n.key(i), lo, hi, depth)
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at different depths: %d and %d", leafDepth, depth)
			}
			if depth > 0 && len(n.offs) < minLeaf {
				t.Fatalf("non-root leaf underfull: %d entries", len(n.offs))
			}
			if len(n.offs) > leafCap {
				t.Fatalf("leaf overfull: %d entries", len(n.offs))
			}
			return
		}
		if len(n.offs) != len(n.kids) {
			t.Fatalf("%d bounds for %d children at depth %d", len(n.offs), len(n.kids), depth)
		}
		if depth > 0 && len(n.kids) < minChildren {
			t.Fatalf("non-root internal underfull: %d children", len(n.kids))
		}
		if len(n.kids) > maxChildren {
			t.Fatalf("internal overfull: %d children", len(n.kids))
		}
		for i, child := range n.kids {
			cLo, cHi := lo, hi
			if i > 0 { // bound 0 is not consulted
				b := n.key(i)
				if i > 1 && bytes.Compare(n.key(i-1), b) >= 0 {
					t.Fatalf("bounds do not strictly ascend at %d, depth %d", i, depth)
				}
				if first := firstKey(child); bytes.Compare(b, first) > 0 {
					t.Fatalf("bound %q above its subtree's first key %q at depth %d", b, first, depth)
				}
				inBounds(b, lo, hi, depth)
				cLo = b
			}
			if i+1 < len(n.kids) {
				cHi = n.key(i + 1)
			}
			walk(child, depth+1, cLo, cHi)
		}
	}
	walk(tr.root, 0, nil, nil)
}

// firstKey returns the smallest key under n.
func firstKey(n *node) []byte {
	for !n.leaf() {
		n = n.kids[0]
	}
	return n.key(0)
}

// boundsOf returns a copy of every bound in tr, depth first, so that a
// later write to a bound's bytes shows as a difference.
func boundsOf(tr tree) []string {
	var out []string
	var walk func(n *node)
	walk = func(n *node) {
		for i, c := range n.kids {
			out = append(out, string(n.key(i)))
			walk(c)
		}
	}
	if tr.root != nil {
		walk(tr.root)
	}
	return out
}

// TestRepointSharesBounds is the internal node's copy rule: a put that
// only re-points a child copies each internal node on its path and
// shares the bounds of the node it copied, the same backing arrays, the
// slab capacity-limited so that neither side appends into it. A put
// that splits a leaf packs the parent's bounds afresh and leaves the
// original's as they were.
func TestRepointSharesBounds(t *testing.T) {
	tr := deepTree(t, 20000, 4)
	before := boundsOf(tr)
	w := tr.begin()
	w.put(key(1), val(1)) // into a leaf built half full: no split
	old, cur := tr.root, w.root
	for !old.leaf() {
		if cur == old {
			t.Fatal("a put on a shared internal node wrote it in place")
		}
		if &cur.slab[0] != &old.slab[0] || &cur.offs[0] != &old.offs[0] {
			t.Fatal("a put that re-points a child copied the bounds")
		}
		if cap(cur.slab) != len(cur.slab) {
			t.Fatal("a shared bound slab has room to spare")
		}
		i := old.childIndex(key(1))
		old, cur = old.kids[i], cur.kids[i]
	}

	lastInner := func(tr tree) *node { // the leftmost leaf's parent
		n := tr.root
		for !n.kids[0].leaf() {
			n = n.kids[0]
		}
		return n
	}
	w = w.begin()
	for j := byte(0); len(lastInner(w).kids) == len(lastInner(tr).kids); j++ {
		w.put(append(key(0), 'a'+j), val(0)) // until the leftmost leaf splits
	}
	if parent, orig := lastInner(w), lastInner(tr); &parent.slab[0] == &orig.slab[0] {
		t.Fatal("a child's split added a bound into shared bounds")
	}
	if !slices.Equal(boundsOf(tr), before) {
		t.Fatal("the original's bounds changed under its copies")
	}
	checkInvariants(t, w)
}

// TestTreeModelCheck is a differential test of the ownership rule: it
// splits a random put/overwrite/delete schedule into writers of random
// length, each of which begins, writes in place what it owns, and is
// then published or (one in five) abandoned like a failed transaction,
// against a map model. After every writer each earlier published root
// is read back against the model as it stood when that root was
// published: a writer that changed a node it did not own shows up as an
// old version that moved, and since every key and value is compared
// byte for byte, so does one whose slab bytes changed under it; so are
// the version's bounds, against their bytes when it was published, so a
// split, merge or borrow that wrote into bounds a copy shares shows too.
// About
// one writer in eight is followed by a load of its tree's snapshot,
// which is published and written on from there, so the copies begin
// from leaves that alias a snapshot's buffer. The key patterns force
// splits, borrows and merges at the right edge, the left edge and inside
// hammered clusters.
func TestTreeModelCheck(t *testing.T) {
	patterns := []struct {
		name  string
		keyOf func(rng *rand.Rand, i int) int
	}{
		{"random", func(rng *rand.Rand, _ int) int { return rng.Intn(3000) }},
		{"sequential", func(_ *rand.Rand, i int) int { return i }},
		{"reverse", func(_ *rand.Rand, i int) int { return 1000000 - i }},
		{"clustered", func(rng *rand.Rand, i int) int { return i/400*10000 + rng.Intn(200) }},
	}
	type pair struct{ k, v string }
	type version struct {
		tr     tree
		want   []pair   // the model when tr was published, in key order
		bounds []string // its internal nodes' bounds then
	}
	sorted := func(model map[string]string) []pair {
		out := make([]pair, 0, len(model))
		for k, v := range model {
			out = append(out, pair{k, v})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
		return out
	}
	check := func(t *testing.T, ver version, what string) {
		t.Helper()
		if ver.tr.Len() != len(ver.want) {
			t.Fatalf("%s: Len = %d, want %d", what, ver.tr.Len(), len(ver.want))
		}
		i := 0
		ver.tr.Ascend(nil, nil, func(k, v []byte) bool {
			if i >= len(ver.want) || string(k) != ver.want[i].k || string(v) != ver.want[i].v {
				t.Fatalf("%s: pair %d = %s=%s, model disagrees", what, i, k, v)
			}
			i++
			return true
		})
		if i != len(ver.want) {
			t.Fatalf("%s: iterated %d pairs, want %d", what, i, len(ver.want))
		}
		if ver.bounds != nil && !slices.Equal(boundsOf(ver.tr), ver.bounds) {
			t.Fatalf("%s: bounds changed since it was published", what)
		}
		for _, j := range []int{0, len(ver.want) / 2, len(ver.want) - 1} {
			if j < 0 || j >= len(ver.want) {
				continue
			}
			if got, ok := ver.tr.Get([]byte(ver.want[j].k)); !ok || string(got) != ver.want[j].v {
				t.Fatalf("%s: Get(%s) = %q, %v", what, ver.want[j].k, got, ok)
			}
		}
	}

	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var tr tree
			model := map[string]string{}
			var published []version

			const ops = 12000
			for i := 0; i < ops; {
				n := 1 + rng.Intn(40)
				if rng.Intn(10) == 0 {
					n = 500 + rng.Intn(1500) // an aggregation-publish-sized writer
				}
				abandon := rng.Intn(5) == 0
				w, next := tr.begin(), model
				if abandon {
					next = map[string]string{}
					for k, v := range model {
						next[k] = v
					}
				}
				for ; n > 0 && i < ops; n, i = n-1, i+1 {
					if rng.Intn(3) < 2 { // put twice as often as delete, so the tree grows
						k, v := fmt.Sprintf("k%07d", p.keyOf(rng, i)), fmt.Sprintf("v%d", i)
						w.put([]byte(k), []byte(v))
						next[k] = v
						continue
					}
					k := fmt.Sprintf("k%07d", p.keyOf(rng, rng.Intn(i+1)))
					_, inModel := next[k]
					if found := w.del([]byte(k)); found != inModel {
						t.Fatalf("op %d: del(%s) found=%v, model=%v", i, k, found, inModel)
					}
					delete(next, k)
				}
				checkInvariants(t, w)
				check(t, version{w, sorted(next), nil}, "the writer's own tree")
				if !abandon {
					tr = w
					published = append(published, version{tr, sorted(model), boundsOf(tr)})
				}
				if rng.Intn(8) == 0 {
					// Go on from the tree a snapshot of this one loads, as a
					// restart or a restore does: leaves that alias the buffer
					// the snapshot was read into, from a file or a stream.
					var snap bytes.Buffer
					if err := encodeSnapshot(&snap, tr, 0, 0); err != nil {
						t.Fatal(err)
					}
					size := int64(snap.Len())
					if rng.Intn(2) == 0 {
						size = -1
					}
					loaded, _, _, err := decodeSnapshot(&snap, size)
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, loaded)
					tr = loaded
					published = append(published, version{tr, sorted(model), boundsOf(tr)})
				}
				for j, ver := range published {
					check(t, ver, fmt.Sprintf("after op %d, version %d of %d", i, j, len(published)))
				}
			}
			if d := tr.depth(); d < 3 {
				t.Fatalf("final depth %d: the schedule no longer exercises internal nodes", d)
			}
		})
	}
}

// FuzzTree drives writers from fuzz bytes, three to an op: a put or a
// delete of a run of up to 64 keys in a space of about 2,100, a begin
// (the writer's tree stays readable, as it does under a Range, and the
// writer goes on under a new stamp), a publish (the next writer begins
// from it), or an abandon (the writer's work is dropped, as a failed
// transaction's is). Every tree a begin or a publish leaves behind is
// checked then and read back after the last op, its pairs against a map
// model and its bounds against their bytes then: a write that reached a
// node, a slab or a bound another version holds shows up as a change.
func FuzzTree(f *testing.F) {
	grow := []byte{0, 0, 63, 0, 8, 63, 0, 16, 63, 0, 24, 63, 3, 0, 0}
	f.Add(grow)
	// A writer adding bounds to its copy of a root published with room to
	// spare in its slab.
	f.Add([]byte{0, 48, 48, 3, 0, 0, 0, 32, 48})
	f.Add(append(grow, 1, 4, 40, 2, 0, 0, 1, 12, 63, 3, 0, 0, 0, 2, 9, 4, 0, 0, 1, 0, 63))
	f.Add([]byte{0, 255, 63, 0, 200, 63, 0, 100, 63, 3, 0, 0, 1, 150, 63, 1, 90, 63, 2, 0, 0, 0, 120, 63})

	f.Fuzz(func(t *testing.T, ops []byte) {
		type version struct {
			tr     tree
			want   map[string]string
			bounds []string
		}
		var kept []version
		var base tree
		model, baseModel := map[string]string{}, map[string]string{}
		w := base.begin()
		keep := func() {
			checkInvariants(t, w)
			kept = append(kept, version{w, maps.Clone(model), boundsOf(w)})
		}
		for i := 0; i+2 < len(ops); i += 3 {
			from, to := int(ops[i+1])*8, int(ops[i+1])*8+int(ops[i+2]%64)+1
			switch ops[i] % 5 {
			case 0:
				for k := from; k < to; k++ {
					w.put(key(k), val(i))
					model[string(key(k))] = string(val(i))
				}
			case 1:
				for k := from; k < to; k++ {
					_, want := model[string(key(k))]
					if got := w.del(key(k)); got != want {
						t.Fatalf("op %d: del(%s) found %v, model %v", i, key(k), got, want)
					}
					delete(model, string(key(k)))
				}
			case 2:
				keep()
				w = w.begin()
			case 3:
				keep()
				base, baseModel = w, maps.Clone(model)
				w = base.begin()
			case 4:
				w, model = base.begin(), maps.Clone(baseModel)
			}
		}
		keep()
		for j, v := range kept {
			n := 0
			v.tr.Ascend(nil, nil, func(k, val []byte) bool {
				if want, ok := v.want[string(k)]; !ok || want != string(val) {
					t.Fatalf("version %d of %d: %s=%s, model has %q", j, len(kept), k, val, want)
				}
				n++
				return true
			})
			if n != len(v.want) || v.tr.Len() != n {
				t.Fatalf("version %d of %d: %d pairs, Len %d, model %d", j, len(kept), n, v.tr.Len(), len(v.want))
			}
			if !slices.Equal(boundsOf(v.tr), v.bounds) {
				t.Fatalf("version %d of %d: bounds changed after it was left behind", j, len(kept))
			}
		}
	})
}

// TestTreeQuickGetAfterPut is a property test: for arbitrary key/value
// pairs, Put then Get round-trips.
func TestTreeQuickGetAfterPut(t *testing.T) {
	f := func(pairs map[string]string) bool {
		var tr tree
		for k, v := range pairs {
			if k == "" {
				continue
			}
			tr = tr.Put([]byte(k), []byte(v))
		}
		for k, v := range pairs {
			if k == "" {
				continue
			}
			got, ok := tr.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeQuickDeleteRestores is a property test: inserting a set then
// deleting a subset leaves exactly the complement.
func TestTreeQuickDeleteRestores(t *testing.T) {
	f := func(add map[string]string, del []string) bool {
		var tr tree
		for k, v := range add {
			if k == "" {
				continue
			}
			tr = tr.Put([]byte(k), []byte(v))
		}
		for _, k := range del {
			tr, _ = tr.Delete([]byte(k))
		}
		deleted := map[string]bool{}
		for _, k := range del {
			deleted[k] = true
		}
		for k, v := range add {
			if k == "" {
				continue
			}
			got, ok := tr.Get([]byte(k))
			if deleted[k] {
				if ok {
					return false
				}
			} else if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSequentialAndReverseInsert(t *testing.T) {
	for _, dir := range []string{"forward", "reverse"} {
		var tr tree
		const n = 2000
		for i := 0; i < n; i++ {
			j := i
			if dir == "reverse" {
				j = n - 1 - i
			}
			tr = tr.Put(key(j), val(j))
		}
		checkInvariants(t, tr)
		if tr.Len() != n {
			t.Fatalf("%s: Len = %d", dir, tr.Len())
		}
	}
}

func BenchmarkTreePut(b *testing.B) {
	var tr tree
	for i := 0; i < b.N; i++ {
		tr = tr.Put(key(i%100000), val(i))
	}
}

// deepTree returns a tree of n sequential even keys built in place:
// 400,000 make the five levels of the daemon's index at benchmark size.
func deepTree(tb testing.TB, n, depth int) tree {
	tr := tree{}.begin()
	for i := 0; i < n; i++ {
		tr.put(key(i*2), val(i))
	}
	if got := tr.depth(); got != depth {
		tb.Fatalf("%d keys make %d levels, want %d", n, got, depth)
	}
	return tr
}

// voteKeys returns the keys of votes votes' worth of tree work: three
// new (odd) keys each, in distant thirds of deepTree(n).
func voteKeys(n, votes int) [][3][]byte {
	out := make([][3][]byte, votes)
	for i := range out {
		for j := range out[i] {
			out[i][j] = key((i*7919+j*n/3)%n*2 + 1)
		}
	}
	return out
}

// BenchmarkTreePutTx is one vote's worth of tree work: three new keys
// in distant places under one writer, on a tree five levels deep.
// BenchmarkTreePut above gives every key a writer of its own.
func BenchmarkTreePutTx(b *testing.B) {
	const n = 400000
	tr, keys, v := deepTree(b, n, 5), voteKeys(n, b.N), val(0)
	b.ReportAllocs()
	b.ResetTimer()
	for _, vote := range keys {
		w := tr.begin()
		for _, k := range vote {
			w.put(k, v)
		}
		tr = w
	}
}

// TestTreePutTxAllocPin pins what BenchmarkTreePutTx measures, and the
// same on the tree a snapshot of it loads into: a writer
// copies each node it passes once, an internal node in one allocation
// (its header and children; the copy shares its bounds) and a leaf in
// two (its header with its offsets, and its slab), so three keys that
// share only the root cost 1 + 3 x (3 + 2) = 16, and a leaf that splits
// now and then a little more: measured 16 and ≈ 4,600–4,750 B. Parent commit:
// 26 and 7,514 B, an internal copy then a header and a slice of {bound,
// child} pairs, ≈ 800 B in two allocations. Before that unchanged since
// leaves became slabs (then: the header and the items); before that, a
// writer copied every level for every key, in three allocations: 3 x 5
// x 3 = 45.
func TestTreePutTxAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, runs = 400000, 500
	built := deepTree(t, n, 5)
	var snap bytes.Buffer
	if err := encodeSnapshot(&snap, built, 0, 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, _, err := decodeSnapshot(&snap, int64(snap.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		tr         tree
		pin, bytes float64
	}{
		{"built in place, 5 levels", built, 17, 5000},
		// Full leaves and internal nodes, as a snapshot loads them: a put
		// splits a leaf and packs its parent's bounds afresh with one
		// more, and early on the parent splits too. Measured 34 and
		// ≈ 9,080 B. Parent commit: 34 and 11,862 B.
		{"loaded, 4 levels", loaded, 34, 9500},
	} {
		tr, keys, v := tc.tr, voteKeys(n, runs+1), val(0)
		next := 0
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		got := testing.AllocsPerRun(runs, func() {
			w := tr.begin()
			for _, k := range keys[next] {
				w.put(k, v)
			}
			tr = w
			next++
		})
		runtime.ReadMemStats(&mem1)
		perRun := float64(mem1.TotalAlloc-mem0.TotalAlloc) / (runs + 1)
		t.Logf("3 puts, 1 writer, %s: %.1f allocs (pin %.0f), %.0f B (pin %.0f)", tc.name, got, tc.pin, perRun, tc.bytes)
		if got > tc.pin {
			t.Errorf("3 puts, 1 writer, %s: %.1f allocs, pinned at %.0f", tc.name, got, tc.pin)
		}
		if perRun > tc.bytes {
			t.Errorf("3 puts, 1 writer, %s: %.0f B, pinned at %.0f", tc.name, perRun, tc.bytes)
		}
		checkInvariants(t, tr)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	var tr tree
	for i := 0; i < 100000; i++ {
		tr = tr.Put(key(i), val(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 100000))
	}
}
