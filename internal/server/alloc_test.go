package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// TestLookupHitAllocBudget pins what one request costs the whole handler
// chain in heap allocations, for the three lookup shapes the benchmark
// drives, on a server built with the daemon's settings. Requests and
// recorders are built beforehand (as in bench/ledger.go's replay), so
// the count is the chain's own plus the recorder's buffer and header
// snapshot. A budget is the measured value + 2; raise one only with the
// reason in the commit.
func TestLookupHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	store := repo.OpenMemory()
	defer store.Close()
	srv := newBudgetServer(t, store)
	const batch = 64
	entries := make([]BootstrapEntry, batch)
	infos := make([]wire.SoftwareInfo, batch)
	for i := range entries {
		entries[i] = BootstrapEntry{Meta: testMeta(byte(i)), Score: 7, Votes: 12}
		infos[i] = wireMeta(byte(i))
	}
	if err := srv.Bootstrap(entries); err != nil {
		t.Fatal(err)
	}
	var xmlReq bytes.Buffer
	if err := wire.Encode(&xmlReq, &wire.LookupRequest{Software: infos[0]}); err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	cases := []struct {
		name        string
		path        string
		contentType string
		body        []byte
		budget      float64
	}{
		// Measured 10: the armed deadline is one allocation (the
		// request copy with its lazy context) and a request id is one
		// string. Parent commit: 13, the deadline's three (a cancellable
		// context, its cancel func, the request copy) and the id's two
		// (its hex bytes, then the string); before that (a key string
		// built for every probe, two allocations) 15.
		{"binary hit", wire.PathLookup, wire.BinaryContentType,
			wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[0]}), 12},
		// Measured 11. Parent commit: 14.
		{"xml hit", wire.PathLookup, wire.ContentType, xmlReq.Bytes(), 13},
		// Measured 11, nothing an entry: the frame is read in place into
		// the scope's views, an entry's identity is parsed from its bytes
		// and its key built on the stack. Parent commit: 268, 4 an entry
		// (the decoded entry's strings); before that 271; before that (8
		// an entry: a key string, its concatenation, an owner string and a
		// decoded identity on top) 527.
		{"batch of 64", wire.PathLookupBatch, wire.BinaryContentType,
			wire.EncodeBinaryLookupBatch(infos, nil), 13},
	}
	for _, tc := range cases {
		// The first request fills the cache; the measured ones hit it.
		got := handlerAllocsPerRequest(t, handler, 200, tc.path, tc.contentType, func(int) []byte { return tc.body })
		t.Logf("%s: %.1f allocs/request (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// newBudgetServer builds a server with the daemon's settings.
func newBudgetServer(t *testing.T, store *repo.Store) *Server {
	t.Helper()
	srv, err := New(Config{
		Store:            store,
		EmailPepper:      "pepper",
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		AdmissionControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// handlerAllocsPerRequest measures the heap allocations of one request
// through the whole handler chain, averaged over runs requests after one
// unmeasured warm-up; request i carries body(i). Requests and recorders
// are built beforehand, and every answer must be a non-empty 200.
func handlerAllocsPerRequest(t *testing.T, handler http.Handler, runs int, path, contentType string, body func(i int) []byte) float64 {
	t.Helper()
	// AllocsPerRun calls the function runs+1 times.
	reqs := make([]*http.Request, runs+2)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body(i)))
		reqs[i].Header.Set("Content-Type", contentType)
		recs[i] = httptest.NewRecorder()
	}
	handler.ServeHTTP(recs[0], reqs[0])
	next := 1
	got := testing.AllocsPerRun(runs, func() {
		handler.ServeHTTP(recs[next], reqs[next])
		next++
	})
	for i, rec := range recs[:next] {
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Fatalf("%s request %d answered %d with %d bytes: %s", path, i, rec.Code, rec.Body.Len(), rec.Body)
		}
	}
	return got
}

// TestLookupMissAllocBudget is TestLookupHitAllocBudget for lookups the
// report cache has never seen — the paper's long-tail programs (§3.3):
// every measured request names a different known program, so each one
// reads its report out of the store, encodes it and fills the cache.
// Every program has a published score, a vendor score and the stated
// number of visible comments by distinct authors.
func TestLookupMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cases := []struct {
		name     string
		path     string
		xml      bool
		comments int
		batch    int // programs per request
		runs     int
		budget   float64
	}{
		// Measured 18, whatever the comment count: the request is read in
		// place, and of its strings only the vendor is made (the record's
		// are made on a first sight alone); the rest is the cache-hit
		// chain, the read transaction, the cache's key string, flight and
		// entry, and the fill's rendered identity, behaviours and times
		// (one string) and the exact-size copy the cache keeps. Parent
		// commit: 21, the decoded request's four strings in place of the
		// vendor's one; before that 24, the hit chain's 3 more; before
		// that (the comments' strings copied out of the tree, a
		// LookupResponse and a formatted time per comment built for the
		// encoder, the encoder's own buffers, five cache objects a
		// store): 46.
		{"binary miss, 3 comments", wire.PathLookup, false, 3, 1, 200, 20},
		// Measured 18. Parent commit: 21; before that 24; before that 69.
		{"binary miss, 10 comments", wire.PathLookup, false, 10, 1, 200, 20},
		// Measured 21: the XML decoder makes the request's strings. Parent
		// commit: 21; before that 24; before that 44.
		{"xml miss, 3 comments", wire.PathLookup, true, 3, 1, 200, 23},
		// Measured 21. Parent commit: 21; before that 24; before that 65.
		{"xml miss, 10 comments", wire.PathLookup, true, 10, 1, 200, 23},
		// Measured 459–460, 7 an entry: the vendor's string, the read
		// transaction, the cache's 3 and the fill's 2. Parent commit: 652,
		// 10 an entry (the four decoded strings); before that 656; before
		// that 2000.
		{"batch of 64 misses, 3 comments", wire.PathLookupBatch, false, 3, 64, 20, 462},
	}
	for _, tc := range cases {
		store := repo.OpenMemory()
		srv := newBudgetServer(t, store)
		infos := seedCommentedSoftware(t, store, (tc.runs+2)*tc.batch, tc.comments)
		contentType := wire.BinaryContentType
		if tc.xml {
			contentType = wire.ContentType
		}
		got := handlerAllocsPerRequest(t, srv.Handler(), tc.runs, tc.path, contentType, func(i int) []byte {
			switch {
			case tc.batch > 1:
				return wire.EncodeBinaryLookupBatch(infos[i*tc.batch:(i+1)*tc.batch], nil)
			case tc.xml:
				var buf bytes.Buffer
				if err := wire.Encode(&buf, &wire.LookupRequest{Software: infos[i]}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			return wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[i]})
		})
		if st := srv.ReportCacheStats(); st.Hits != 0 {
			t.Fatalf("%s: %d cache hits, want every request to miss", tc.name, st.Hits)
		}
		store.Close()
		t.Logf("%s: %.1f allocs/request (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestVoteAllocBudget is the same budget for the write path: one
// logged-in user casts a score-only vote, as the benchmark's paper_mix
// does, on a different known program each request, so every vote is
// accepted, stored and acknowledged.
func TestVoteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cases := []struct {
		name   string
		xml    bool
		budget float64
	}{
		// Measured 39: 12 the chain around the handler, 11 decoding the
		// request and building the answer, 16 repo.CastVote on this
		// in-memory store (repo's TestCastVoteAllocPin has the store call
		// alone, on a deep tree too). Parent commit: 43, the deadline's
		// and the request id's 3 more and the 3 key+value copies
		// Bucket.Put made, less the 2 of the extra tree level these keys
		// take at 16 entries a leaf. Before that: 45, a buffer to decode
		// the identity's hex in and the invalidated owner's string on
		// top.
		{"binary vote", false, 41},
		// Measured 39. Parent commit: 43.
		{"xml vote", true, 41},
	}
	for _, tc := range cases {
		store := repo.OpenMemory()
		srv := newBudgetServer(t, store)
		const runs = 200
		session := registerAndLogin(t, srv, "voter")
		infos := seedCommentedSoftware(t, store, runs+2, 0)
		contentType := wire.BinaryContentType
		if tc.xml {
			contentType = wire.ContentType
		}
		got := handlerAllocsPerRequest(t, srv.Handler(), runs, wire.PathVote, contentType, func(i int) []byte {
			req := &wire.VoteRequest{Session: session, Software: infos[i], Score: 7, Behaviors: core.Behavior(0).String()}
			if !tc.xml {
				return wire.EncodeBinaryVote(req)
			}
			var buf bytes.Buffer
			if err := wire.Encode(&buf, req); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		})
		store.Close()
		t.Logf("%s: %.1f allocs/request (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// seedCommentedSoftware records n programs straight into the store, each
// with a published score, a scored vendor and one commented vote from
// each of the first `comments` of ten users.
func seedCommentedSoftware(t *testing.T, store *repo.Store, n, comments int) []wire.SoftwareInfo {
	t.Helper()
	now := vclock.Epoch
	users := make([]string, 10)
	for i := range users {
		users[i] = fmt.Sprintf("author-%d", i)
		u := repo.User{Username: users[i], PasswordHash: "pbkdf2-sha256$1$aa$bb", EmailHash: "hash-of-" + users[i],
			SignedUpAt: now, Activated: true, Trust: core.NewTrust(now)}
		if err := store.CreateUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.SetVendorScore(core.VendorScore{Vendor: "Acme", Score: 6.5, SoftwareCount: n}); err != nil {
		t.Fatal(err)
	}
	infos := make([]wire.SoftwareInfo, n)
	scores := make([]core.SoftwareScore, n)
	for i := range infos {
		meta := core.SoftwareMeta{
			ID:       core.ComputeSoftwareID([]byte(fmt.Sprintf("long-tail-%d", i))),
			FileName: fmt.Sprintf("tail-%d.exe", i), FileSize: 4096, Vendor: "Acme", Version: "1.0",
		}
		if _, err := store.UpsertSoftware(meta, now); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < comments; j++ {
			r := core.Rating{UserID: users[j], Software: meta.ID, Score: 1 + j, At: now}
			if _, err := store.AddRating(r, fmt.Sprintf("comment %d on program %d", j, i)); err != nil {
				t.Fatal(err)
			}
		}
		scores[i] = core.SoftwareScore{Software: meta.ID, Score: 5.5, Votes: comments, ComputedAt: now}
		infos[i] = wire.SoftwareInfo{ID: meta.ID.String(), FileName: meta.FileName, FileSize: meta.FileSize,
			Vendor: meta.Vendor, Version: meta.Version}
	}
	if err := store.SetScores(scores); err != nil {
		t.Fatal(err)
	}
	return infos
}
