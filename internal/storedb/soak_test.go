package storedb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestDBConcurrentCompaction runs readers, a writer and periodic
// compactions together: readers must always observe consistent
// snapshots and the final state must survive a reopen.
func TestDBConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	const writes = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.View(func(tx *Tx) error {
					b := tx.MustBucket("soak")
					prev := -1
					ok := true
					b.ForEach(func(k, v []byte) bool {
						// Keys are zero-padded integers; values repeat the
						// key. Within one snapshot both invariants hold.
						if !bytes.Equal(k, v) {
							ok = false
							return false
						}
						n := parseInt(k)
						if n <= prev {
							ok = false
							return false
						}
						prev = n
						return true
					})
					if !ok {
						return fmt.Errorf("inconsistent snapshot")
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes/10; i++ {
			if err := db.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < writes; i++ {
		key := []byte(fmt.Sprintf("%06d", i))
		err := db.Update(func(tx *Tx) error {
			return tx.MustBucket("soak").Put(key, key)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != writes {
		t.Fatalf("recovered %d keys, want %d", db2.Len(), writes)
	}
}

func parseInt(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

// TestDBReopenSoak interleaves writes, deletes, compactions and reopens
// against a map model.
func TestDBReopenSoak(t *testing.T) {
	dir := t.TempDir()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(77))

	for round := 0; round < 6; round++ {
		db, err := Open(Options{Dir: dir, CompactEvery: 25})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Verify the model first.
		err = db.View(func(tx *Tx) error {
			b := tx.MustBucket("soak")
			count := 0
			var verr error
			b.ForEach(func(k, v []byte) bool {
				count++
				if model[string(k)] != string(v) {
					verr = fmt.Errorf("round %d: key %s = %q, model %q", round, k, v, model[string(k)])
					return false
				}
				return true
			})
			if verr != nil {
				return verr
			}
			if count != len(model) {
				return fmt.Errorf("round %d: %d keys, model %d", round, count, len(model))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// Mutate.
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				err := db.Update(func(tx *Tx) error {
					return tx.MustBucket("soak").Delete([]byte(k))
				})
				if err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("r%d-%d", round, i)
				err := db.Update(func(tx *Tx) error {
					return tx.MustBucket("soak").Put([]byte(k), []byte(v))
				})
				if err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
		if round%2 == 1 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWalBatchQuickRoundTrip property-tests the WAL batch codec.
func TestWalBatchQuickRoundTrip(t *testing.T) {
	f := func(seq uint64, rawOps [][2][]byte, deletes []bool) bool {
		b := Batch{Seq: seq}
		for i, kv := range rawOps {
			op := Op{Key: kv[0], Val: kv[1]}
			if i < len(deletes) && deletes[i] {
				op = Op{Delete: true, Key: kv[0]}
			}
			b.Ops = append(b.Ops, op)
		}
		dec, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			return false
		}
		if dec.Seq != seq || len(dec.Ops) != len(b.Ops) {
			return false
		}
		for i := range b.Ops {
			if dec.Ops[i].Delete != b.Ops[i].Delete {
				return false
			}
			if !bytes.Equal(dec.Ops[i].Key, b.Ops[i].Key) {
				return false
			}
			if !b.Ops[i].Delete && !bytes.Equal(dec.Ops[i].Val, b.Ops[i].Val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketRangeEdgeCases checks explicit bound handling.
func TestBucketRangeEdgeCases(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.Update(func(tx *Tx) error {
		b := tx.MustBucket("r")
		for _, k := range []string{"a", "b", "c", "d"} {
			if err := b.Put([]byte(k), []byte(k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	collect := func(lo, hi []byte) []string {
		var out []string
		db.View(func(tx *Tx) error {
			tx.MustBucket("r").Range(lo, hi, func(k, v []byte) bool {
				out = append(out, string(k))
				return true
			})
			return nil
		})
		return out
	}

	if got := collect([]byte("b"), []byte("d")); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("range [b,d) = %v", got)
	}
	if got := collect(nil, []byte("b")); len(got) != 1 || got[0] != "a" {
		t.Fatalf("range [nil,b) = %v", got)
	}
	if got := collect([]byte("c"), nil); len(got) != 2 || got[0] != "c" {
		t.Fatalf("range [c,nil) = %v", got)
	}
	if got := collect([]byte("x"), nil); len(got) != 0 {
		t.Fatalf("empty range = %v", got)
	}
	// RangePrefix with a shared prefix.
	db.Update(func(tx *Tx) error {
		b := tx.MustBucket("r")
		b.Put([]byte("pre-1"), nil)
		b.Put([]byte("pre-2"), nil)
		b.Put([]byte("prf"), nil)
		return nil
	})
	var pre []string
	db.View(func(tx *Tx) error {
		tx.MustBucket("r").RangePrefix([]byte("pre"), func(k, v []byte) bool {
			pre = append(pre, string(k))
			return true
		})
		return nil
	})
	if len(pre) != 2 {
		t.Fatalf("prefix range = %v", pre)
	}
}
