package repo

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
)

func newUser(name string) User {
	return User{
		Username:     name,
		PasswordHash: "pbkdf2-sha256$1$aa$bb",
		EmailHash:    "hash-of-" + name,
		SignedUpAt:   vclock.Epoch,
		Activated:    true,
		Trust:        core.NewTrust(vclock.Epoch),
	}
}

func newSoftwareMeta(seed byte) core.SoftwareMeta {
	content := []byte{seed, seed + 1, seed + 2}
	return core.SoftwareMeta{
		ID:       core.ComputeSoftwareID(content),
		FileName: fmt.Sprintf("app-%d.exe", seed),
		FileSize: 3,
		Vendor:   "Acme",
		Version:  "1.0",
	}
}

func mustCreateUser(t *testing.T, s *Store, name string) User {
	t.Helper()
	u := newUser(name)
	if err := s.CreateUser(u); err != nil {
		t.Fatalf("CreateUser(%s): %v", name, err)
	}
	return u
}

func mustUpsertSoftware(t *testing.T, s *Store, seed byte) core.SoftwareMeta {
	t.Helper()
	m := newSoftwareMeta(seed)
	if _, err := s.UpsertSoftware(m, vclock.Epoch); err != nil {
		t.Fatalf("UpsertSoftware: %v", err)
	}
	return m
}

func TestUserCRUD(t *testing.T) {
	s := OpenMemory()
	defer s.Close()

	u := mustCreateUser(t, s, "alice")
	got, found, err := s.GetUser("alice")
	if err != nil || !found {
		t.Fatalf("GetUser: %v, %v", found, err)
	}
	if got.Username != u.Username || got.EmailHash != u.EmailHash || !got.Activated {
		t.Fatalf("user round trip = %+v", got)
	}
	if got.Trust.Value != core.TrustMin {
		t.Fatalf("trust = %v", got.Trust.Value)
	}

	got.LastLoginAt = vclock.Epoch.Add(time.Hour)
	got.Trust = got.Trust.Apply(2, vclock.Epoch.Add(time.Hour))
	if err := s.UpdateUser(got); err != nil {
		t.Fatal(err)
	}
	again, _, _ := s.GetUser("alice")
	if !again.LastLoginAt.Equal(vclock.Epoch.Add(time.Hour)) || again.Trust.Value != 3 {
		t.Fatalf("update lost: %+v", again)
	}
}

func TestUserUniqueness(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	if err := s.CreateUser(newUser("alice")); !errors.Is(err, ErrUserExists) {
		t.Fatalf("dup username err = %v", err)
	}
	// Same e-mail hash, different username: one account per address.
	dup := newUser("alice2")
	dup.EmailHash = "hash-of-alice"
	if err := s.CreateUser(dup); !errors.Is(err, ErrEmailTaken) {
		t.Fatalf("dup email err = %v", err)
	}
	name, found, _ := s.UsernameForEmailHash("hash-of-alice")
	if !found || name != "alice" {
		t.Fatalf("email index = %q, %v", name, found)
	}
}

func TestUserUpdateGuards(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if err := s.UpdateUser(newUser("ghost")); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	u := mustCreateUser(t, s, "alice")
	u.EmailHash = "different"
	if err := s.UpdateUser(u); err == nil {
		t.Fatal("e-mail hash change accepted")
	}
	if err := s.CreateUser(User{}); err == nil {
		t.Fatal("empty username accepted")
	}
}

func TestForEachUser(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	for _, n := range []string{"carol", "alice", "bob"} {
		mustCreateUser(t, s, n)
	}
	var names []string
	if err := s.ForEachUser(func(u User) bool {
		names = append(names, u.Username)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alice" || names[2] != "carol" {
		t.Fatalf("ForEachUser order = %v", names)
	}
	// Early stop.
	count := 0
	s.ForEachUser(func(User) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestSoftwareUpsert(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	m := newSoftwareMeta(1)
	created, err := s.UpsertSoftware(m, vclock.Epoch)
	if err != nil || !created {
		t.Fatalf("first upsert: %v, %v", created, err)
	}
	created, err = s.UpsertSoftware(m, vclock.Epoch.Add(time.Hour))
	if err != nil || created {
		t.Fatalf("second upsert must be a no-op: %v, %v", created, err)
	}
	got, found, err := s.GetSoftware(m.ID)
	if err != nil || !found {
		t.Fatalf("GetSoftware: %v", err)
	}
	if got.Meta != m || !got.FirstSeenAt.Equal(vclock.Epoch) {
		t.Fatalf("software = %+v", got)
	}
}

func TestSoftwareByVendor(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	for seed := byte(1); seed <= 3; seed++ {
		mustUpsertSoftware(t, s, seed)
	}
	other := newSoftwareMeta(9)
	other.Vendor = "Globex"
	s.UpsertSoftware(other, vclock.Epoch)
	stripped := newSoftwareMeta(10)
	stripped.Vendor = ""
	s.UpsertSoftware(stripped, vclock.Epoch)

	acme, err := s.SoftwareByVendor("Acme")
	if err != nil || len(acme) != 3 {
		t.Fatalf("Acme list = %d, %v", len(acme), err)
	}
	globex, _ := s.SoftwareByVendor("Globex")
	if len(globex) != 1 || globex[0] != other.ID {
		t.Fatalf("Globex list = %v", globex)
	}
	if none, _ := s.SoftwareByVendor(""); len(none) != 0 {
		t.Fatal("stripped-vendor software must not be indexed")
	}
	// Vendor names that prefix each other stay separate.
	if ac, _ := s.SoftwareByVendor("Ac"); len(ac) != 0 {
		t.Fatal("prefix vendor name leaked entries")
	}
}

func TestAddRatingOneVoteRule(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)

	r := core.Rating{UserID: "alice", Software: m.ID, Score: 7, At: vclock.Epoch}
	if _, err := s.AddRating(r, "works fine"); err != nil {
		t.Fatal(err)
	}
	r.Score = 2
	if _, err := s.AddRating(r, "changed my mind"); !errors.Is(err, ErrAlreadyRated) {
		t.Fatalf("second vote err = %v", err)
	}
	got, found, _ := s.GetRating(m.ID, "alice")
	if !found || got.Score != 7 {
		t.Fatalf("stored rating = %+v, %v", got, found)
	}
}

func TestAddRatingGuards(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)

	bad := core.Rating{UserID: "alice", Software: m.ID, Score: 11, At: vclock.Epoch}
	if _, err := s.AddRating(bad, ""); !errors.Is(err, core.ErrScoreRange) {
		t.Fatalf("out-of-range score err = %v", err)
	}
	ghostUser := core.Rating{UserID: "ghost", Software: m.ID, Score: 5, At: vclock.Epoch}
	if _, err := s.AddRating(ghostUser, ""); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("missing user err = %v", err)
	}
	ghostSw := core.Rating{UserID: "alice", Software: core.ComputeSoftwareID([]byte("x")), Score: 5, At: vclock.Epoch}
	if _, err := s.AddRating(ghostSw, ""); !errors.Is(err, ErrSoftwareNotFound) {
		t.Fatalf("missing software err = %v", err)
	}
}

func TestRatingsForSoftwareAndByUser(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	m1 := mustUpsertSoftware(t, s, 1)
	m2 := mustUpsertSoftware(t, s, 2)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("user%d", i)
		mustCreateUser(t, s, name)
		r := core.Rating{UserID: name, Software: m1.ID, Score: i + 1, At: vclock.Epoch,
			Behaviors: core.BehaviorDisplaysAds}
		if _, err := s.AddRating(r, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddRating(core.Rating{UserID: "user0", Software: m2.ID, Score: 9, At: vclock.Epoch}, ""); err != nil {
		t.Fatal(err)
	}

	votes, err := s.RatingsForSoftware(m1.ID)
	if err != nil || len(votes) != 5 {
		t.Fatalf("RatingsForSoftware = %d, %v", len(votes), err)
	}
	sum := 0
	for _, v := range votes {
		sum += v.Score
		if v.Software != m1.ID || !v.Behaviors.Has(core.BehaviorDisplaysAds) {
			t.Fatalf("vote fields wrong: %+v", v)
		}
	}
	if sum != 15 {
		t.Fatalf("scores sum = %d", sum)
	}

	rated, err := s.SoftwareRatedBy("user0")
	if err != nil || len(rated) != 2 {
		t.Fatalf("SoftwareRatedBy = %v, %v", rated, err)
	}
}

func TestCommentsAndRemarks(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "author")
	mustCreateUser(t, s, "reader")
	mustCreateUser(t, s, "reader2")
	m := mustUpsertSoftware(t, s, 1)

	cid, err := s.AddRating(core.Rating{UserID: "author", Software: m.ID, Score: 3, At: vclock.Epoch},
		"shows pop-ups constantly")
	if err != nil || cid == 0 {
		t.Fatalf("AddRating with comment: %d, %v", cid, err)
	}

	comments, err := s.CommentsForSoftware(m.ID)
	if err != nil || len(comments) != 1 || comments[0].Text != "shows pop-ups constantly" {
		t.Fatalf("comments = %+v, %v", comments, err)
	}

	author, err := s.AddRemark(core.Remark{UserID: "reader", CommentID: cid, Positive: true, At: vclock.Epoch})
	if err != nil || author != "author" {
		t.Fatalf("AddRemark: %q, %v", author, err)
	}
	if _, err := s.AddRemark(core.Remark{UserID: "reader", CommentID: cid, Positive: false, At: vclock.Epoch}); !errors.Is(err, ErrAlreadyRemarked) {
		t.Fatalf("dup remark err = %v", err)
	}
	if _, err := s.AddRemark(core.Remark{UserID: "author", CommentID: cid, Positive: true, At: vclock.Epoch}); !errors.Is(err, ErrSelfRemark) {
		t.Fatalf("self remark err = %v", err)
	}
	if _, err := s.AddRemark(core.Remark{UserID: "reader", CommentID: 9999, Positive: true, At: vclock.Epoch}); !errors.Is(err, ErrCommentNotFound) {
		t.Fatalf("missing comment err = %v", err)
	}
	s.AddRemark(core.Remark{UserID: "reader2", CommentID: cid, Positive: false, At: vclock.Epoch})

	c, found, _ := s.GetComment(cid)
	if !found || c.Positive != 1 || c.Negative != 1 {
		t.Fatalf("comment counters = %+v", c)
	}
}

func TestCommentIDsMonotonic(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	m := mustUpsertSoftware(t, s, 1)
	var last uint64
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("u%d", i)
		mustCreateUser(t, s, name)
		cid, err := s.AddRating(core.Rating{UserID: name, Software: m.ID, Score: 5, At: vclock.Epoch}, "c")
		if err != nil {
			t.Fatal(err)
		}
		if cid <= last {
			t.Fatalf("comment id %d not increasing past %d", cid, last)
		}
		last = cid
	}
}

func TestScoresRoundTrip(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	m := mustUpsertSoftware(t, s, 1)
	sc := core.SoftwareScore{
		Software:   m.ID,
		Score:      7.25,
		Votes:      12,
		Behaviors:  core.BehaviorDisplaysAds | core.BehaviorTracksUsage,
		ComputedAt: vclock.Epoch.Add(24 * time.Hour),
	}
	if err := s.SetScore(sc); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.GetScore(m.ID)
	if err != nil || !found {
		t.Fatalf("GetScore: %v", err)
	}
	if got.Score != 7.25 || got.Votes != 12 || !got.Behaviors.Has(core.BehaviorTracksUsage) {
		t.Fatalf("score = %+v", got)
	}
	if _, found, _ := s.GetScore(core.ComputeSoftwareID([]byte("other"))); found {
		t.Fatal("phantom score")
	}
}

func TestSetScoresBatch(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	var batch []core.SoftwareScore
	for seed := byte(1); seed <= 10; seed++ {
		m := mustUpsertSoftware(t, s, seed)
		batch = append(batch, core.SoftwareScore{Software: m.ID, Score: float64(seed), Votes: 1})
	}
	if err := s.SetScores(batch); err != nil {
		t.Fatal(err)
	}
	got, found, _ := s.GetScore(batch[4].Software)
	if !found || got.Score != 5 {
		t.Fatalf("batch score = %+v", got)
	}
}

func TestVendorScoreRoundTrip(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	v := core.VendorScore{Vendor: "Acme", Score: 6.5, SoftwareCount: 4}
	if err := s.SetVendorScore(v); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.GetVendorScore("Acme")
	if err != nil || !found || got != v {
		t.Fatalf("vendor score = %+v, %v, %v", got, found, err)
	}
	if _, found, _ := s.GetVendorScore("Ghost"); found {
		t.Fatal("phantom vendor score")
	}
}

func TestAggregationStatePersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(storedb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := s.AggregationState()
	if err != nil || !sched.LastRun.IsZero() {
		t.Fatalf("initial state = %+v, %v", sched, err)
	}
	ran := sched.Ran(vclock.Epoch.Add(24 * time.Hour))
	if err := s.SetAggregationState(ran); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(storedb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.AggregationState()
	if err != nil || !got.LastRun.Equal(ran.LastRun) {
		t.Fatalf("persisted state = %+v, %v", got, err)
	}
}

func TestRepoPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(storedb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustCreateUser(t, s, "alice")
	m := mustUpsertSoftware(t, s, 1)
	if _, err := s.AddRating(core.Rating{UserID: "alice", Software: m.ID, Score: 8, At: vclock.Epoch}, "solid"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(storedb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, found, _ := s2.GetUser("alice"); !found {
		t.Fatal("user lost across reopen")
	}
	votes, _ := s2.RatingsForSoftware(m.ID)
	if len(votes) != 1 || votes[0].Score != 8 {
		t.Fatalf("ratings lost: %+v", votes)
	}
	comments, _ := s2.CommentsForSoftware(m.ID)
	if len(comments) != 1 {
		t.Fatal("comments lost")
	}
	// The comment-ID counter continues, no reuse.
	mustCreateUser(t, s2, "bob")
	cid, err := s2.AddRating(core.Rating{UserID: "bob", Software: m.ID, Score: 5, At: vclock.Epoch}, "meh")
	if err != nil || cid != 2 {
		t.Fatalf("comment id after reopen = %d, %v", cid, err)
	}
}

func TestStats(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	mustCreateUser(t, s, "bob")
	m := mustUpsertSoftware(t, s, 1)
	cid, _ := s.AddRating(core.Rating{UserID: "alice", Software: m.ID, Score: 5, At: vclock.Epoch}, "c")
	s.AddRating(core.Rating{UserID: "bob", Software: m.ID, Score: 6, At: vclock.Epoch}, "")
	s.AddRemark(core.Remark{UserID: "bob", CommentID: cid, Positive: true, At: vclock.Epoch})

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Users: 2, Software: 1, Ratings: 2, Comments: 1, Remarks: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestForEachSoftware(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	for seed := byte(1); seed <= 4; seed++ {
		mustUpsertSoftware(t, s, seed)
	}
	n := 0
	if err := s.ForEachSoftware(func(sw Software) bool {
		if sw.Meta.Vendor != "Acme" {
			t.Fatalf("unexpected vendor %q", sw.Meta.Vendor)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("visited %d software", n)
	}
}

func TestReportState(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	meta := mustUpsertSoftware(t, s, 1)
	for i, name := range []string{"ann", "bob", "cyd"} {
		u := mustCreateUser(t, s, name)
		u.Trust.Value = float64(2 + i)
		if err := s.UpdateUser(u); err != nil {
			t.Fatal(err)
		}
		r := core.Rating{UserID: name, Software: meta.ID, Score: 5, At: vclock.Epoch}
		if _, err := s.AddRating(r, "by "+name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetCommentHidden(2, true); err != nil { // bob's
		t.Fatal(err)
	}

	// Nothing published yet: the identity is echoed, the numbers are zero,
	// and the vendor's name is the caller's, never made a string here.
	vendorName := []byte(meta.Vendor)
	st, err := s.ReportState(meta.ID, vendorName, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Known || st.Score != (core.SoftwareScore{Software: meta.ID}) || st.Vendor != (core.VendorScore{}) {
		t.Fatalf("unpublished report state = %+v", st)
	}
	if len(st.Comments) != 2 || st.Comments[0].UserID != "ann" || st.Comments[0].AuthorTrust != 2 ||
		st.Comments[1].UserID != "cyd" || st.Comments[1].AuthorTrust != 4 || st.Comments[1].Text != "by cyd" {
		t.Fatalf("visible comments = %+v", st.Comments)
	}

	score := core.SoftwareScore{Software: meta.ID, Score: 6.5, Votes: 3, Behaviors: core.BehaviorDisplaysAds, ComputedAt: vclock.Epoch}
	vendor := core.VendorScore{Vendor: meta.Vendor, Score: 6.5, SoftwareCount: 1}
	if err := s.SetScore(score); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVendorScore(vendor); err != nil {
		t.Fatal(err)
	}
	if st, err = s.ReportState(meta.ID, vendorName, false, nil); err != nil {
		t.Fatal(err)
	}
	if !st.Score.ComputedAt.Equal(score.ComputedAt) {
		t.Fatalf("score time = %v", st.Score.ComputedAt)
	}
	st.Score.ComputedAt = score.ComputedAt
	if vendor.Vendor = ""; st.Score != score || st.Vendor != vendor || st.Comments != nil {
		t.Fatalf("published report state without comments = %+v", st)
	}
	// No vendor named: the vendor score is not read.
	if st, err = s.ReportState(meta.ID, nil, false, nil); err != nil || st.Vendor != (core.VendorScore{}) {
		t.Fatalf("vendorless report state = %+v, %v", st, err)
	}
	// An executable never seen.
	if st, err = s.ReportState(newSoftwareMeta(9).ID, nil, true, nil); err != nil || st.Known || st.Comments != nil {
		t.Fatalf("unknown executable's report state = %+v, %v", st, err)
	}

	// Into scratch: the same comments, in the scratch's memory when they
	// fit and in memory the scratch keeps when they do not, and still
	// what they were after the records they borrow from are replaced.
	owned, err := s.ReportState(meta.ID, vendorName, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []AuthoredComment
	for round := 0; round < 2; round++ {
		if st, err = s.ReportState(meta.ID, vendorName, true, &scratch); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, owned) || len(scratch) != 2 || &scratch[0] != &st.Comments[0] {
			t.Fatalf("round %d: report state into scratch = %+v (scratch %+v), want %+v", round, st, scratch, owned)
		}
	}
	if err := s.SetCommentHidden(1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCommentHidden(1, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, owned) {
		t.Fatalf("borrowed comments changed under a rewrite of their records: %+v, want %+v", st, owned)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeUser([]byte{}, true); !errors.Is(err, ErrDecode) {
		t.Fatalf("empty user decode err = %v", err)
	}
	if _, err := decodeUser([]byte{99, 1, 2}, false); !errors.Is(err, ErrDecode) {
		t.Fatalf("bad version decode err = %v", err)
	}
	if _, err := decodeSoftware([]byte{softwareRecordVersion, 0xFF}); !errors.Is(err, ErrDecode) {
		t.Fatalf("truncated software decode err = %v", err)
	}
	if _, err := decodeComment([]byte{commentRecordVersion}, false); !errors.Is(err, ErrDecode) {
		t.Fatalf("truncated comment decode err = %v", err)
	}
	// Trailing bytes are an error too.
	valid := encodeUser(newUser("x"))
	if _, err := decodeUser(append(valid, 0x00), false); !errors.Is(err, ErrDecode) {
		t.Fatalf("trailing bytes decode err = %v", err)
	}
}

func TestCheckIntegrityCleanStore(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	mustCreateUser(t, s, "alice")
	mustCreateUser(t, s, "bob")
	m := mustUpsertSoftware(t, s, 1)
	stripped := newSoftwareMeta(2)
	stripped.Vendor = ""
	s.UpsertSoftware(stripped, vclock.Epoch)
	cid, err := s.AddRating(core.Rating{UserID: "alice", Software: m.ID, Score: 7, At: vclock.Epoch}, "good")
	if err != nil {
		t.Fatal(err)
	}
	s.AddRating(core.Rating{UserID: "bob", Software: m.ID, Score: 4, At: vclock.Epoch}, "")
	s.AddRemark(core.Remark{UserID: "bob", CommentID: cid, Positive: true, At: vclock.Epoch})

	problems, err := s.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean store reported problems: %v", problems)
	}
}

func TestCheckIntegrityAtScale(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	for i := 0; i < 20; i++ {
		mustCreateUser(t, s, fmt.Sprintf("user%02d", i))
	}
	var metas []core.SoftwareMeta
	for seed := byte(1); seed <= 30; seed++ {
		metas = append(metas, mustUpsertSoftware(t, s, seed))
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			s.AddRating(core.Rating{
				UserID:   fmt.Sprintf("user%02d", i),
				Software: metas[(i+j)%len(metas)].ID,
				Score:    1 + (i+j)%10,
				At:       vclock.Epoch,
			}, "c")
		}
	}
	problems, err := s.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("populated store reported %d problems, e.g. %v", len(problems), problems[0])
	}
}
