package repo

import (
	"errors"
	"strings"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
)

// Fault injection: corrupt records planted directly in the underlying
// buckets must surface as ErrDecode through every read path and as
// reported problems through CheckIntegrity — never as panics or silent
// misreads.

func plant(t *testing.T, s *Store, bucket string, key, val []byte) {
	t.Helper()
	err := s.db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket(bucket).Put(key, val)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCorruptUserRecordSurfaces(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	plant(t, s, bucketUsers, []byte("mangled"), []byte{99, 1, 2, 3})

	if _, _, err := s.GetUser("mangled"); !errors.Is(err, ErrDecode) {
		t.Fatalf("GetUser on corrupt record err = %v", err)
	}
	// Healthy records stay readable.
	if _, found, err := s.GetUser("alice"); err != nil || !found {
		t.Fatalf("healthy record affected: %v", err)
	}
	if err := s.ForEachUser(func(User) bool { return true }); !errors.Is(err, ErrDecode) {
		t.Fatalf("ForEachUser err = %v", err)
	}
	problems, err := s.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 || !strings.Contains(problems[0], "undecodable") {
		t.Fatalf("integrity check missed the corruption: %v", problems)
	}
}

func TestCorruptSoftwareRecordSurfaces(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	m := mustUpsertSoftware(t, s, 1)
	bogus := core.ComputeSoftwareID([]byte("bogus"))
	plant(t, s, bucketSoftware, bogus[:], []byte{softwareRecordVersion, 0xFF, 0xFF})

	if _, _, err := s.GetSoftware(bogus); !errors.Is(err, ErrDecode) {
		t.Fatalf("GetSoftware err = %v", err)
	}
	if _, found, err := s.GetSoftware(m.ID); err != nil || !found {
		t.Fatalf("healthy software affected: %v", err)
	}
	if err := s.ForEachSoftware(func(Software) bool { return true }); !errors.Is(err, ErrDecode) {
		t.Fatalf("ForEachSoftware err = %v", err)
	}
	problems, _ := s.CheckIntegrity()
	if len(problems) == 0 {
		t.Fatal("integrity check missed corrupt software record")
	}
}

func TestDanglingIndexEntriesReported(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)
	if _, err := s.AddRating(core.Rating{UserID: "alice", Software: m.ID, Score: 5, At: vclock.Epoch}, "c"); err != nil {
		t.Fatal(err)
	}

	// Dangle every kind of index pointer.
	ghost := core.ComputeSoftwareID([]byte("ghost"))
	plant(t, s, bucketEmails, []byte("orphan-hash"), []byte("nobody"))
	plant(t, s, bucketSwByVendor, vendorKey("GhostVendor", ghost), nil)
	plant(t, s, bucketRatingsByU, ratingUserKey(nil, "nobody", ghost), nil)
	csKey := commentIndexKey(nil, ghost, 999)
	plant(t, s, bucketCommentsByS, csKey, nil)

	problems, err := s.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	wantFragments := []string{
		"email index",
		"vendor index",
		"by-user index",
		"by-software index",
	}
	for _, frag := range wantFragments {
		found := false
		for _, p := range problems {
			if strings.Contains(p, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("integrity check missed %q problems: %v", frag, problems)
		}
	}
}

func TestMissingMirrorReported(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)
	if _, err := s.AddRating(core.Rating{UserID: "alice", Software: m.ID, Score: 5, At: vclock.Epoch}, ""); err != nil {
		t.Fatal(err)
	}
	// Delete the by-user mirror out from under the rating.
	err := s.db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket(bucketRatingsByU).Delete(ratingUserKey(nil, "alice", m.ID))
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, _ := s.CheckIntegrity()
	found := false
	for _, p := range problems {
		if strings.Contains(p, "missing by-user mirror") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing mirror not reported: %v", problems)
	}
}

func TestCorruptRatingSurfaces(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)
	plant(t, s, bucketRatings, ratingKey(nil, m.ID, "alice"), []byte{ratingRecordVersion, 0x80})

	if _, _, err := s.GetRating(m.ID, "alice"); !errors.Is(err, ErrDecode) {
		t.Fatalf("GetRating err = %v", err)
	}
	if _, err := s.RatingsForSoftware(m.ID); !errors.Is(err, ErrDecode) {
		t.Fatalf("RatingsForSoftware err = %v", err)
	}
}

func TestCorruptCommentSurfaces(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)
	cid, err := s.AddRating(core.Rating{UserID: "alice", Software: m.ID, Score: 5, At: vclock.Epoch}, "fine")
	if err != nil {
		t.Fatal(err)
	}
	plant(t, s, bucketComments, commentKey(nil, cid), []byte{commentRecordVersion})

	if _, _, err := s.GetComment(cid); !errors.Is(err, ErrDecode) {
		t.Fatalf("GetComment err = %v", err)
	}
	if _, err := s.CommentsForSoftware(m.ID); !errors.Is(err, ErrDecode) {
		t.Fatalf("CommentsForSoftware err = %v", err)
	}
	if _, err := s.PendingComments(); !errors.Is(err, ErrDecode) {
		t.Fatalf("PendingComments err = %v", err)
	}
	// Remarking a corrupt comment fails cleanly too.
	mustCreateUser(t, s, "bob")
	if _, err := s.AddRemark(core.Remark{UserID: "bob", CommentID: cid, Positive: true, At: vclock.Epoch}); !errors.Is(err, ErrDecode) {
		t.Fatalf("AddRemark err = %v", err)
	}
}
