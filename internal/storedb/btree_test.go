package storedb

import (
	"bytes"
	"fmt"
	"math/rand"
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
		n = n.kids[0].child
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
// order within nodes, lower-bound separation, fill constraints (except
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
		if n.offs != nil || n.slab != nil {
			t.Fatal("internal node holds entries")
		}
		if depth > 0 && len(n.kids) < minChildren {
			t.Fatalf("non-root internal underfull: %d children", len(n.kids))
		}
		if len(n.kids) > maxChildren {
			t.Fatalf("internal overfull: %d children", len(n.kids))
		}
		for i, k := range n.kids {
			cLo, cHi := lo, hi
			if i > 0 {
				if i > 1 && bytes.Compare(n.kids[i-1].key, k.key) >= 0 {
					t.Fatalf("child bounds out of order at depth %d", depth)
				}
				inBounds(k.key, lo, hi, depth)
				cLo = k.key
			}
			if i+1 < len(n.kids) {
				cHi = n.kids[i+1].key
			}
			walk(k.child, depth+1, cLo, cHi)
		}
	}
	walk(tr.root, 0, nil, nil)
}

// TestTreeModelCheck is a differential test of the ownership rule: it
// splits a random put/overwrite/delete schedule into writers of random
// length, each of which begins, writes in place what it owns, and is
// then published or (one in five) abandoned like a failed transaction,
// against a map model. After every writer each earlier published root
// is read back against the model as it stood when that root was
// published: a writer that changed a node it did not own shows up as an
// old version that moved, and since every key and value is compared
// byte for byte, so does one whose slab bytes changed under it. About
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
		tr   tree
		want []pair // the model when tr was published, in key order
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
				check(t, version{w, sorted(next)}, "the writer's own tree")
				if !abandon {
					tr = w
					published = append(published, version{tr, sorted(model)})
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
					published = append(published, version{tr, sorted(model)})
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

// TestTreePutTxAllocPin pins what BenchmarkTreePutTx measures: a writer
// copies each node it passes once, in two allocations (an internal
// node's header and children; a leaf's header with its offsets, and its
// slab), so three keys that share only the root cost 2 x (1 + 3 x 4) =
// 26, and a leaf that splits now and then a little more. Unchanged since
// leaves became slabs (then: the header and the items); before that, a
// writer copied every level for every key, in three allocations: 3 x 5
// x 3 = 45.
func TestTreePutTxAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, runs = 400000, 500
	tr, keys, v := deepTree(t, n, 5), voteKeys(n, runs+1), val(0)
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		w := tr.begin()
		for _, k := range keys[next] {
			w.put(k, v)
		}
		tr = w
		next++
	})
	const pin = 27
	t.Logf("3 puts, 1 writer, 5 levels: %.1f allocs (pin %d)", got, pin)
	if got > pin {
		t.Errorf("3 puts, 1 writer, 5 levels: %.1f allocs, pinned at %d", got, pin)
	}
	checkInvariants(t, tr)
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
