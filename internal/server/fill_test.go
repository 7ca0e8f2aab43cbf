package server

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// plainEncodings is the reference a fill is held to: the report read
// into memory of its own (LookupWithFeeds' owning copies), assembled
// into a freshly allocated LookupResponse the way the server did before
// it had a scratch, and encoded by the two public encoders.
func plainEncodings(t *testing.T, s *Server, meta core.SoftwareMeta, feeds []string, lean bool) (bin, xml []byte) {
	t.Helper()
	var rs reportScratch
	subscribe(s, &rs, feeds)
	rep, err := s.lookupReport(meta, nil, rs.feeds, lean, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := &wire.LookupResponse{
		Known:       rep.Known,
		ID:          meta.ID.String(),
		Score:       rep.Score.Score,
		Votes:       rep.Score.Votes,
		Behaviors:   rep.Score.Behaviors.String(),
		Vendor:      rep.Vendor.Vendor,
		VendorScore: rep.Vendor.Score,
		VendorCount: rep.Vendor.SoftwareCount,
	}
	for _, c := range rep.Comments {
		resp.Comments = append(resp.Comments, wire.CommentInfo{
			ID: c.ID, User: s.DisplayName(c.UserID), Text: c.Text, Positive: c.Positive, Negative: c.Negative,
			At: c.At.Format(wire.TimeFormat), AuthorTrust: c.AuthorTrust,
		})
	}
	slices.SortStableFunc(resp.Comments, func(a, b wire.CommentInfo) int { return cmp.Compare(b.AuthorTrust, a.AuthorTrust) })
	for _, fa := range rep.Advice {
		resp.Advice = append(resp.Advice, wire.AdviceInfo{
			Feed: fa.Feed, Score: fa.Advice.Score, Behaviors: fa.Advice.Behaviors.String(), Note: fa.Advice.Note,
		})
	}
	var buf bytes.Buffer
	if err := wire.Encode(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return wire.EncodeBinaryReport(resp), buf.Bytes()
}

// poison writes over everything a fill left in the scratch, as the
// scope's next fill would, only worse: every byte 0xAA, every string a
// run of them.
func (rs *reportScratch) poison() {
	const junk = "\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa"
	for i := range rs.authored[:cap(rs.authored)] {
		rs.authored[:cap(rs.authored)][i] = repo.AuthoredComment{
			Comment: core.Comment{ID: 0xAAAAAAAA, UserID: junk, Text: junk, Positive: 0xAAAA, Negative: 0xAAAA}, AuthorTrust: 0xAAAA,
		}
	}
	comments := rs.resp.Comments[:cap(rs.resp.Comments)]
	for i := range comments {
		comments[i] = wire.CommentInfo{ID: 0xAAAAAAAA, User: junk, Text: junk, At: junk, AuthorTrust: 0xAAAA}
	}
	advice := rs.resp.Advice[:cap(rs.resp.Advice)]
	for i := range advice {
		advice[i] = wire.AdviceInfo{Feed: junk, Behaviors: junk, Note: junk}
	}
	rs.resp = wire.LookupResponse{ID: junk, Behaviors: junk, Vendor: junk, Comments: comments[:0], Advice: advice[:0]}
	for _, b := range [][]byte{rs.text[:cap(rs.text)], rs.enc[:cap(rs.enc)], rs.view.Unescaped[:cap(rs.view.Unescaped)]} {
		for i := range b {
			b[i] = 0xAA
		}
	}
}

// fillBoth runs the server's fill for one report in both wire formats
// on the given scope, as a request of each format would on a miss.
func fillBoth(s *Server, sc *scope, meta core.SoftwareMeta, feeds []string, lean bool) (bin, xml []byte, err error) {
	var key [reportKeyScratch]byte
	subscribe(s, &sc.rep, feeds)
	sc.bin = true
	if err = s.cachedReport(sc, sc.rep.key(key[:0], cacheFormat[sc.bin], meta.ID), meta, nil, lean,
		func(r repcache.Report) { bin = bytes.Clone(r.Data) }); err != nil {
		return nil, nil, err
	}
	sc.bin = false
	err = s.cachedReport(sc, sc.rep.key(key[:0], cacheFormat[sc.bin], meta.ID), meta, nil, lean,
		func(r repcache.Report) { xml = bytes.Clone(r.Data) })
	return bin, xml, err
}

// TestFillMatchesPlainEncoding is the property that lets the fill build a
// report out of borrowed and reused memory: over random report states,
// its bytes are those of wire.EncodeBinaryReport and wire.Encode on a
// plainly allocated LookupResponse, in both formats, also from a scratch
// that the previous report (larger or smaller) has been through, and the
// cached bytes stay those bytes after the scratch is written over.
func TestFillMatchesPlainEncoding(t *testing.T) {
	texts := []string{
		"plain", "", "<script>&amp;\"quoted\" 'single' ]]>", "bad utf8 \xff\xfe end", "nul \x00 and \x01 control, tab\t nl\n cr\r",
		"snowman ☃ and \U0001F600", "\xaa\xaa", "trailing ampersand &",
	}
	store := repo.OpenMemory()
	defer store.Close()
	srv, err := New(Config{Store: store, EmailPepper: "pepper"})
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Epoch
	const authors = 40
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < authors; i++ {
		trust := core.NewTrust(now)
		trust.Value = float64(1 + rng.Intn(3)) // few values: equal trusts are the rule, so the sort's stability shows
		u := repo.User{Username: fmt.Sprintf("author-%d<&>", i), PasswordHash: "pbkdf2-sha256$1$aa$bb",
			EmailHash: fmt.Sprintf("hash-%d", i), SignedUpAt: now, Activated: true, Trust: trust}
		if err := store.CreateUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.SetVendorScore(core.VendorScore{Vendor: "Acme & Sons", Score: 6.25, SoftwareCount: 12}); err != nil {
		t.Fatal(err)
	}
	feedNames := []string{"cert.example.org", "lab<2>", "silent"}
	sc := scopes.Get().(*scope)
	for round := 0; round < 120; round++ {
		meta := core.SoftwareMeta{
			ID:       core.ComputeSoftwareID([]byte(fmt.Sprintf("program-%d", round))),
			FileName: fmt.Sprintf("p%d.exe", round), FileSize: int64(round),
			Vendor: []string{"Acme & Sons", "Nobody <Inc>", ""}[rng.Intn(3)], Version: "1.0",
		}
		if _, err := store.UpsertSoftware(meta, now); err != nil {
			t.Fatal(err)
		}
		comments := rng.Intn(41)
		if round%10 == 0 {
			comments = 0
		}
		for _, a := range rng.Perm(authors)[:comments] {
			r := core.Rating{UserID: fmt.Sprintf("author-%d<&>", a), Software: meta.ID, Score: 1 + rng.Intn(10),
				At: now.AddDate(0, 0, rng.Intn(400))}
			id, err := store.AddRating(r, texts[rng.Intn(len(texts))]+fmt.Sprint(a))
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				if err := store.SetCommentHidden(id, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(4) != 0 {
			score := core.SoftwareScore{Software: meta.ID, Score: float64(rng.Intn(100)) / 7, Votes: comments,
				Behaviors: core.Behavior(rng.Intn(1 << core.NumBehaviors)), ComputedAt: now}
			if err := store.SetScores([]core.SoftwareScore{score}); err != nil {
				t.Fatal(err)
			}
		}
		var feeds []string
		for _, name := range feedNames {
			if rng.Intn(2) == 0 {
				feeds = append(feeds, name)
			}
			if name != "silent" && rng.Intn(3) == 0 {
				srv.Feed(name).Publish(ExpertAdvice{Software: meta.ID, Score: float64(rng.Intn(10)),
					Behaviors: core.Behavior(rng.Intn(1 << core.NumBehaviors)), Note: texts[rng.Intn(len(texts))]})
			}
		}
		lean := rng.Intn(6) == 0

		wantBin, wantXML := plainEncodings(t, srv, meta, feeds, lean)
		gotBin, gotXML, err := fillBoth(srv, sc, meta, feeds, lean)
		if err != nil {
			t.Fatal(err)
		}
		sc.rep.poison()
		if !bytes.Equal(gotBin, wantBin) {
			t.Fatalf("round %d (%d comments, lean %v): binary fill\n got %q\nwant %q", round, comments, lean, gotBin, wantBin)
		}
		if !bytes.Equal(gotXML, wantXML) {
			t.Fatalf("round %d (%d comments, lean %v): XML fill\n got %q\nwant %q", round, comments, lean, gotXML, wantXML)
		}
		if lean {
			continue // never cached
		}
		// The cache now holds both; what it serves is what was built.
		hitBin, hitXML, err := fillBoth(srv, sc, meta, feeds, false)
		if err != nil || !bytes.Equal(hitBin, wantBin) || !bytes.Equal(hitXML, wantXML) {
			t.Fatalf("round %d: the cached bytes changed when the scratch was written over", round)
		}
	}
	if st := srv.ReportCacheStats(); st.Stored == 0 || st.Hits == 0 {
		t.Fatalf("the cache took no part: %+v", st)
	}
}

// TestScratchPoisoning runs misses, hits and votes on a few overlapping
// programs from many goroutines, each with a scope of its own whose
// scratch is poisoned after every call, and holds every served report to
// two rules. Nothing borrowed escapes: a served report decodes, and each
// of its comments carries the text its author wrote. A report cached
// before a vote is never served after it: once Vote has returned, no
// lookup that starts afterwards shows fewer comments than votes were
// acknowledged. When the dust settles, every program's cached bytes are
// the bytes of a fresh, plainly allocated build.
func TestScratchPoisoning(t *testing.T) {
	const programs, voters, readers, lookups = 4, 24, 6, 300
	srv, _ := newTestServer(t, nil)
	metas := make([]core.SoftwareMeta, programs)
	acked := make([]atomic.Int64, programs)
	for p := range metas {
		metas[p] = testMeta(byte(p))
		if _, err := srv.Lookup(metas[p]); err != nil { // first sight: on record from here on
			t.Fatal(err)
		}
	}
	sessions := make([]string, voters)
	for v := range sessions {
		sessions[v] = registerAndLogin(t, srv, fmt.Sprintf("voter-%d", v))
	}
	text := func(voter, p int) string { return fmt.Sprintf("voter-%d on program %d: <&> \xaa", voter, p) }

	check := func(sc *scope, p int) {
		floor := acked[p].Load()
		bin, xml, err := fillBoth(srv, sc, metas[p], nil, false)
		sc.rep.poison()
		if err != nil {
			t.Errorf("program %d: %v", p, err)
			return
		}
		payload, rest, err := wire.SplitBinaryFrame(bin)
		if err != nil || len(rest) != 0 {
			t.Errorf("program %d: served frame does not split: %v", p, err)
			return
		}
		resp, err := wire.DecodeBinaryReport(payload)
		var fromXML wire.LookupResponse
		if err == nil {
			err = wire.DecodeXML(xml, &fromXML)
		}
		if err != nil {
			t.Errorf("program %d: served report does not decode: %v", p, err)
			return
		}
		if resp.ID != metas[p].ID.String() || !resp.Known {
			t.Errorf("program %d: served the report of %s, known %v", p, resp.ID, resp.Known)
		}
		if int64(len(resp.Comments)) < floor || int64(len(fromXML.Comments)) < floor {
			t.Errorf("program %d: %d binary / %d XML comments served after %d votes were acknowledged",
				p, len(resp.Comments), len(fromXML.Comments), floor)
		}
		for _, c := range resp.Comments {
			var voter int
			if _, err := fmt.Sscanf(c.User, "voter-%d", &voter); err != nil || c.Text != text(voter, p) {
				t.Errorf("program %d: comment %d by %q reads %q", p, c.ID, c.User, c.Text)
			}
		}
	}

	var wg sync.WaitGroup
	for v := 0; v < voters; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			sc := scopes.Get().(*scope)
			for p := range metas {
				if _, err := srv.Vote(sessions[v], metas[p], 1+v%10, 0, text(v, p)); err != nil {
					t.Errorf("voter %d on program %d: %v", v, p, err)
					return
				}
				acked[p].Add(1)
				check(sc, p)
			}
		}(v)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sc := scopes.Get().(*scope)
			for i := 0; i < lookups; i++ {
				check(sc, (r+i)%programs)
			}
		}(r)
	}
	wg.Wait()

	sc := scopes.Get().(*scope)
	for p, meta := range metas {
		wantBin, wantXML := plainEncodings(t, srv, meta, nil, false)
		gotBin, gotXML, err := fillBoth(srv, sc, meta, nil, false)
		if err != nil || !bytes.Equal(gotBin, wantBin) || !bytes.Equal(gotXML, wantXML) {
			t.Errorf("program %d: cached bytes differ from a fresh build\n got %q\nwant %q", p, gotBin, wantBin)
		}
	}
	if st := srv.ReportCacheStats(); st.Hits == 0 || st.Stored == 0 || st.Invalidations == 0 {
		t.Errorf("the run did not mix hits, fills and invalidations: %+v", st)
	}
}
