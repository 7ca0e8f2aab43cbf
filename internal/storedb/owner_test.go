package storedb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSnapshotLoadAllocPin pins that loading a snapshot allocates
// nothing per entry: one allocation per node (a leaf's header with its
// offsets; its entries are a slice of the file's one buffer), and a
// handful for the load itself: measured 6,503 for 6,455 nodes. The
// parent commit, which put every entry into a growing tree, made 26,732
// for 6,664 nodes (4.01 a node: its items regrown on the way to every
// split), itself down from 3 per level per key, about 9 x keys here.
func TestSnapshotLoadAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const keys = 100000
	src := tree{}.begin()
	for i := 0; i < keys; i++ {
		src.put(append([]byte("b\x00"), key(i)...), val(i))
	}
	var snap bytes.Buffer
	if err := encodeSnapshot(&snap, src, 7, 0xfeed); err != nil {
		t.Fatal(err)
	}
	var loaded tree
	got := testing.AllocsPerRun(1, func() {
		var err error
		if loaded, _, _, err = decodeSnapshot(bytes.NewReader(snap.Bytes()), int64(snap.Len())); err != nil {
			t.Fatal(err)
		}
	})
	nodes := 0
	var count func(n *node)
	count = func(n *node) {
		nodes++
		for _, k := range n.kids {
			count(k)
		}
	}
	count(loaded.root)
	if loaded.Len() != keys || loaded.depth() < 3 {
		t.Fatalf("loaded %d keys in %d levels", loaded.Len(), loaded.depth())
	}
	const extra = 64
	t.Logf("%d keys, %d nodes: %.0f allocs (pin: nodes + %d)", keys, nodes, got, extra)
	if got > float64(nodes+extra) {
		t.Errorf("%d keys, %d nodes: %.0f allocs, pinned at nodes + %d", keys, nodes, got, extra)
	}
}

// Tests of the tree's ownership rule as the database uses it: what a
// writer may change in place must be invisible to every reader, and to
// an iteration of its own.

// TestOwnershipUnderReaders runs View readers over a primary and a
// replica while the primary takes small Updates and aggregation-sized
// ones (20,000 puts in one Tx) and the replica follows by ApplyBatch.
// Every transaction rewrites a whole bucket to one generation, so a
// reader that sees two generations in one View has seen a node change
// under it; the race detector sees the write itself.
func TestOwnershipUnderReaders(t *testing.T) {
	const (
		markers = 8
		fillers = 20000
		rounds  = 12
		small   = 40 // small Updates per round
	)
	primary := openTemp(t, Options{CompactEvery: -1})
	replica := openTemp(t, Options{CompactEvery: -1})
	replica.SetReplicaMode(true)

	writeAll := func(bucket string, n int, gen []byte) error {
		return primary.Update(func(tx *Tx) error {
			b := tx.MustBucket(bucket)
			for i := 0; i < n; i++ {
				if err := b.Put(key(i), gen); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := writeAll("fill", fillers, []byte("g0")); err != nil {
		t.Fatal(err)
	}
	if err := writeAll("mark", markers, []byte("g0")); err != nil {
		t.Fatal(err)
	}

	oneGeneration := func(db *DB) error {
		return db.View(func(tx *Tx) error {
			for _, bucket := range []string{"fill", "mark"} {
				var first []byte
				var err error
				n := 0
				tx.MustBucket(bucket).ForEach(func(k, v []byte) bool {
					if first == nil {
						first = v
					}
					if !bytes.Equal(v, first) {
						err = fmt.Errorf("%s: key %s at %s, first key at %s", bucket, k, v, first)
					}
					n++
					return err == nil
				})
				if err != nil {
					return err
				}
				if n != 0 && n != fillers && n != markers {
					return fmt.Errorf("%s: %d keys in one view", bucket, n)
				}
			}
			return nil
		})
	}

	stop := make(chan struct{})
	var readers, follower sync.WaitGroup
	for _, db := range []*DB{primary, primary, replica, replica} {
		readers.Add(1)
		go func(db *DB) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := oneGeneration(db); err != nil {
					t.Error(err)
					return
				}
			}
		}(db)
	}
	follow := func() error {
		return primary.Since(replica.Seq(), 0, func(b Batch) error { return replica.ApplyBatch(b) })
	}
	follower.Add(1)
	go func() {
		defer follower.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := follow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 1; r <= rounds; r++ {
		for i := 0; i < small; i++ {
			if err := writeAll("mark", markers, []byte(fmt.Sprintf("g%d.%d", r, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeAll("fill", fillers, []byte(fmt.Sprintf("g%d", r))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	follower.Wait()
	if err := follow(); err != nil {
		t.Fatal(err)
	}
	if replica.Seq() != primary.Seq() {
		t.Fatalf("replica at %d, primary at %d", replica.Seq(), primary.Seq())
	}
	for _, db := range []*DB{primary, replica} {
		if err := oneGeneration(db); err != nil {
			t.Fatal(err)
		}
		if v, _ := get(t, db, "fill", string(key(fillers-1))); v != fmt.Sprintf("g%d", rounds) {
			t.Fatalf("last filler at %q", v)
		}
	}
}

// TestHandedOutBytesNeverChange is the write-once rule as a reader
// inside the writer sees it. One write transaction keeps every key and
// value Get and Range hand it, each beside a copy, and appends to each
// at once. Then it puts new keys, replaces values (longer and shorter)
// and deletes keys in the same leaves, the ones it has come to own
// included, until they split, borrow and merge, reading back and
// keeping as it goes. Every kept slice must still equal its copy, and
// the appends must have reached nothing: the store ends equal to the
// model. The store starts from a snapshot load, so the first leaves
// written are slices of its buffer, and from a plain in-memory tree.
func TestHandedOutBytesNeverChange(t *testing.T) {
	const n = 600
	for _, durable := range []bool{false, true} {
		var db *DB
		var err error
		dir := ""
		if durable {
			dir = t.TempDir()
		}
		if db, err = Open(Options{Dir: dir, CompactEvery: -1}); err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		err = db.Update(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				model[string(key(i*4))] = string(val(i))
				if err := tx.MustBucket("b").Put(key(i*4), val(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if durable { // reopen from a snapshot: leaves alias its buffer
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			db.Close()
			if db, err = Open(Options{Dir: dir, CompactEvery: -1}); err != nil {
				t.Fatal(err)
			}
		}

		type kept struct{ got, want []byte }
		var held []kept
		hold := func(p []byte) {
			held = append(held, kept{p, append([]byte(nil), p...)})
			_ = append(p, "poison!"...) // must copy, not write behind p
		}
		rng := rand.New(rand.NewSource(7))
		err = db.Update(func(tx *Tx) error {
			b := tx.MustBucket("b")
			read := func() {
				b.ForEach(func(k, v []byte) bool { hold(k); hold(v); return true })
				for k := range model {
					if v, ok := b.Get([]byte(k)); ok {
						hold(v)
					}
				}
			}
			read()
			for round := 0; round < 6; round++ {
				for j := 0; j < 400; j++ {
					i := rng.Intn(n * 4)
					k := key(i)
					switch op := rng.Intn(10); {
					case op < 4: // a new key or a replace, often in a leaf already written
						v := bytes.Repeat([]byte{byte('a' + round)}, rng.Intn(40))
						model[string(k)] = string(v)
						if err := b.Put(k, v); err != nil {
							return err
						}
					case op < 6 || round >= 3: // deletes outnumber puts late on: leaves merge
						delete(model, string(k))
						if err := b.Delete(k); err != nil {
							return err
						}
					default:
						if v, ok := b.Get(k); ok {
							hold(v)
						}
						continue
					}
					if v, ok := b.Get(k); ok {
						hold(v)
					}
				}
				read()
			}
			for i, h := range held {
				if !bytes.Equal(h.got, h.want) {
					return fmt.Errorf("handed-out slice %d changed from %q to %q", i, h.want, h.got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("durable %v: %v", durable, err)
		}
		err = db.View(func(tx *Tx) error {
			b := tx.MustBucket("b")
			if got := b.Count(nil); got != len(model) {
				return fmt.Errorf("%d keys, model has %d", got, len(model))
			}
			for k, v := range model {
				if got, _ := b.Get([]byte(k)); string(got) != v {
					return fmt.Errorf("%s = %q, model has %q", k, got, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("durable %v: %v", durable, err)
		}
		if len(held) < 10*n {
			t.Fatalf("durable %v: only %d slices held", durable, len(held))
		}
		db.Close()
	}
}

// TestWriteInsideRange writes through a transaction from inside its own
// Range: an overwrite of the key under the cursor, new keys just after
// it and ahead of everything, a delete of the key after it (which the
// iteration still visits) and of one behind it. The transaction has
// written before the Range starts, so it owns nodes the iteration
// stands on. The iteration must see exactly what was there when it
// began, and every write must survive it.
func TestWriteInsideRange(t *testing.T) {
	for _, opts := range []Options{{}, {Dir: t.TempDir()}} {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		const n = 2000
		want := map[string]string{} // the bucket after the transaction
		err = db.Update(func(tx *Tx) error {
			b := tx.MustBucket("b")
			for i := 0; i < n; i++ {
				want[string(key(i))] = string(val(i))
				if err := b.Put(key(i), val(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		err = db.Update(func(tx *Tx) error {
			b := tx.MustBucket("b")
			write := func(k, v string) error {
				if v == "" {
					delete(want, k)
					return b.Delete([]byte(k))
				}
				want[k] = v
				return b.Put([]byte(k), []byte(v))
			}
			for _, i := range []int{0, n / 2, n - 1} { // own both edges and the middle
				if err := write(string(key(i)), "owned"); err != nil {
					return err
				}
			}
			began := map[string]string{}
			for k, v := range want {
				began[k] = v
			}

			i := 0
			var ferr error
			b.ForEach(func(k, v []byte) bool {
				if !bytes.Equal(k, key(i)) || began[string(k)] != string(v) {
					ferr = fmt.Errorf("visit %d saw %s=%s; %s=%s was there when the iteration began", i, k, v, key(i), began[string(key(i))])
					return false
				}
				at := string(k)
				writes := [][2]string{{at, "over"}, {at + "-after", "new"}, {"ahead-" + at, "new"}}
				if i%3 == 0 {
					writes = append(writes, [2]string{string(key(i + 1)), ""})
				}
				if i%5 == 4 {
					writes = append(writes, [2]string{string(key(i-1)) + "-after", ""})
				}
				for _, w := range writes {
					if ferr = write(w[0], w[1]); ferr != nil {
						return false
					}
				}
				i++
				return true
			})
			if ferr == nil && i != n {
				ferr = fmt.Errorf("iteration made %d visits, %d keys were there when it began", i, n)
			}
			return ferr
		})
		if err != nil {
			t.Fatal(err)
		}

		err = db.View(func(tx *Tx) error {
			b := tx.MustBucket("b")
			if got := b.Count(nil); got != len(want) {
				return fmt.Errorf("%d keys after the transaction, want %d", got, len(want))
			}
			for k, v := range want {
				if got, _ := b.Get([]byte(k)); string(got) != v {
					return fmt.Errorf("%s = %q after the transaction, want %q", k, got, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
