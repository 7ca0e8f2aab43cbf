package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/frame"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/wire"
)

// TestBatchBodyGolden pins one batch body byte for byte, per-entry error
// frames included: a hit, a miss, a program never seen (its Known=false
// report), an identity with spaces around it (trimmed, as the single
// lookup's), and two identities that do not parse, each answered by an
// error frame of its own. The golden was captured at the commit before
// batch entries were read in place.
func TestBatchBodyGolden(t *testing.T) {
	f := newReportFixture(t, false)
	f.post(t, wire.PathLookupBatch, wire.BinaryContentType, wire.EncodeBinaryLookupBatch([]wire.SoftwareInfo{fixInfo(fixNone)}, fixFeeds))
	padded := fixInfo(fixTen)
	padded.ID = " " + padded.ID + "\t"
	infos := []wire.SoftwareInfo{
		fixInfo(fixNone),       // a hit: the batch above filled it, feed list and all
		fixInfo(fixThree),      // a miss, with two feeds' advice
		fixInfo(fixFirstSight), // never seen
		padded,
		{ID: "zz", FileName: "bad.exe"},
		{ID: "abcd", FileName: "short.exe", Vendor: "Acme"},
	}
	hits := f.srv.ReportCacheStats().Hits
	got := f.post(t, wire.PathLookupBatch, wire.BinaryContentType, wire.EncodeBinaryLookupBatch(infos, fixFeeds))
	if n := f.srv.ReportCacheStats().Hits - hits; n != 1 {
		t.Fatalf("%d cache hits, want the first entry's", n)
	}
	checkGolden(t, "batch_mixed.golden.bin", got)
}

// TestFeedListCannotGrowTheCache: a lookup needs no session, and a
// report's cache key holds the request's whole feed list, so a client
// naming thousands of feeds nobody publishes must not make the daemon
// keep a megabyte per cache entry. Two shapes, each naming known
// programs: 40 single binary lookups of ≈ 860 KB, and one batch of
// ≈ 864 KB naming 64. Every entry is answered; afterwards less than 1 MiB
// is held, and the batch allocates less than 5% of the 324 MiB it cost
// while such keys were built and cached.
func TestFeedListCannotGrowTheCache(t *testing.T) {
	const singles, batch, feeds = 40, 64, 20000
	store := repo.OpenMemory()
	defer store.Close()
	srv := newBudgetServer(t, store)
	entries := make([]BootstrapEntry, singles+batch)
	infos := make([]wire.SoftwareInfo, len(entries))
	for i := range entries {
		meta := testMeta(byte(i))
		entries[i] = BootstrapEntry{Meta: meta, Score: 7, Votes: 12}
		infos[i] = wireMeta(byte(i))
	}
	if err := srv.Bootstrap(entries); err != nil {
		t.Fatal(err)
	}
	names := make([]string, feeds)
	for i := range names {
		names[i] = fmt.Sprintf("unpublished-feed-%013d.example.org", i) // 42 bytes
	}
	handler := srv.Handler()
	serve := func(path string, body []byte, want []wire.SoftwareInfo) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.BinaryContentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		frames := readFrames(t, rec.Body)
		if rec.Code != http.StatusOK || len(frames) != len(want) {
			t.Fatalf("%s: status %d, %d frames, want 200 and %d", path, rec.Code, len(frames), len(want))
		}
		for i, payload := range frames {
			if rep, err := wire.DecodeBinaryReport(payload); err != nil || rep.ID != want[i].ID || !rep.Known {
				t.Fatalf("%s: frame %d: %+v, %v", path, i, rep, err)
			}
		}
	}
	var ms runtime.MemStats
	heldNow := func() int64 {
		runtime.GC()
		runtime.GC() // a second cycle empties sync.Pool's victim cache
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	before := heldNow()
	for i := 0; i < singles; i++ {
		serve(wire.PathLookup, wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[i], Feeds: names}), infos[i:i+1])
	}
	heldSingles := heldNow() - before
	if heldSingles >= 1<<20 {
		t.Errorf("%d single lookups with %d unknown feeds left %.1f MiB held, want < 1 MiB", singles, feeds, float64(heldSingles)/(1<<20))
	}

	body := wire.EncodeBinaryLookupBatch(infos[singles:], names)
	before = heldNow()
	total := ms.TotalAlloc
	serve(wire.PathLookupBatch, body, infos[singles:])
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc - total
	heldBatch := heldNow() - before
	runtime.KeepAlive(body)
	if heldBatch >= 1<<20 {
		t.Errorf("a %d KB batch left %.1f MiB held, want < 1 MiB", len(body)>>10, float64(heldBatch)/(1<<20))
	}
	if allocated >= 324<<20/20 {
		t.Errorf("a %d KB batch allocated %.1f MiB, want < 5%% of 324 MiB", len(body)>>10, float64(allocated)/(1<<20))
	}
	t.Logf("held after the single lookups %.3f MiB, after the batch %.3f MiB; the %d KB batch allocated %.1f MiB",
		float64(heldSingles)/(1<<20), float64(heldBatch)/(1<<20), len(body)>>10, float64(allocated)/(1<<20))
}

// lateBody hands over its bytes, then holds the handler reading it past
// the request's deadline before the body ends.
type lateBody struct {
	r    *bytes.Reader
	hold time.Duration
}

func (b *lateBody) Read(p []byte) (int, error) {
	if b.r.Len() == 0 {
		time.Sleep(b.hold)
	}
	return b.r.Read(p)
}

// TestNoViewOutlivesItsRequest: every lookup and vote is read in place,
// so whatever it leaves behind — a cache entry, a first-sight record, a
// stored rating or comment — must be a copy, never a view of the scope's
// request buffer or of a view's unescape buffer. Goroutines send a mix
// through the whole handler chain: batches that hit, batches that miss
// with a first sight and an identity that does not parse, single binary
// and XML misses and first sights (the XML ones' names escaped), single
// lookups whose feed list is too long to key, and votes in both codecs on
// new programs, with escaped names, a comment and behaviours. After every
// request they take a pooled scope and write 0xAA over its request and
// unescape buffers, as the next request would, only worse. Meanwhile one
// batch reads its body past the deadline: a scope whose handler is late is
// never pooled, which is what keeps that handler's views valid while it
// fills. Every answer must be the plain build's bytes, and afterwards
// every cache entry, every first-sight record and every stored vote must
// equal a plain decode of what was sent.
func TestNoViewOutlivesItsRequest(t *testing.T) {
	const known, workers, rounds = 16, 4, 20
	const timeout = 250 * time.Millisecond
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: timeout})
	entries := make([]BootstrapEntry, known)
	infos := make([]wire.SoftwareInfo, known)
	want := make([][]byte, known)
	wantXML := make([][]byte, known)
	for k := range entries {
		entries[k] = BootstrapEntry{Meta: testMeta(byte(k)), Score: float64(k%10) + 0.5, Votes: k}
		infos[k] = wireMeta(byte(k))
	}
	if err := srv.Bootstrap(entries); err != nil {
		t.Fatal(err)
	}
	for k := range entries {
		want[k], wantXML[k] = plainEncodings(t, srv, entries[k].Meta, nil, false)
	}
	badID := wire.SoftwareInfo{ID: "not-an-id", FileName: "bad.exe"}
	_, badErr := core.ParseSoftwareID(badID.ID)
	wantBad := wire.EncodeBinaryError(&wire.ErrorResponse{Code: wire.CodeBadRequest, Message: badErr.Error()})
	firstSight := func(w, i int) wire.SoftwareInfo {
		return wire.SoftwareInfo{ID: core.ComputeSoftwareID([]byte(fmt.Sprintf("first-%d-%d", w, i))).String(),
			FileName: fmt.Sprintf("first-%d-%d.exe", w, i), FileSize: int64(w*1000 + i), Vendor: fmt.Sprintf("Vendor %d", w),
			Version: fmt.Sprintf("%d.%d", w, i)}
	}
	escaped := func(info wire.SoftwareInfo) wire.SoftwareInfo { // each name holds a reference in XML
		info.FileName, info.Vendor, info.Version = "Tom & "+info.FileName, info.Vendor+" <Inc>", `"`+info.Version+`"`
		return info
	}
	longFeeds := make([]string, 200) // a single lookup of over 4 KiB, and a key past the bound
	for i := range longFeeds {
		longFeeds[i] = fmt.Sprintf("long-feed-%020d", i)
	}
	sessions := make([]string, workers)
	for w := range sessions {
		sessions[w] = registerAndLogin(t, srv, fmt.Sprintf("voter-%d", w))
	}
	encodeXML := func(doc wire.Document) []byte { return wire.AppendXML(nil, doc) }

	handler := srv.Handler()
	postAs := func(path, contentType string, body io.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}
	post := func(path string, body io.Reader) *httptest.ResponseRecorder {
		return postAs(path, wire.BinaryContentType, body)
	}
	poisonPooled := func() {
		sc := scopes.Get().(*scope)
		in := sc.in.AvailableBuffer()
		for _, b := range [][]byte{in[:cap(in)], sc.rep.view.Unescaped[:cap(sc.rep.view.Unescaped)], sc.vote.Unescaped[:cap(sc.vote.Unescaped)]} {
			for i := range b {
				b[i] = 0xAA
			}
		}
		scopes.Put(sc)
	}

	var mu sync.Mutex
	keys := make(map[string][]byte) // every report key a request may have filled: the report it must hold
	var sighted []wire.SoftwareInfo
	type castVote struct {
		wire.VoteRequest
		commentID uint64
	}
	var votes []castVote
	var late atomic.Int64
	note := func(key, report []byte) {
		mu.Lock()
		defer mu.Unlock()
		keys[string(key)] = report
	}
	batchKey := func(k int, feeds []string) []byte {
		var rs reportScratch
		subscribe(srv, &rs, feeds)
		return rs.key(nil, repcache.FormatBinary, testMeta(byte(k)).ID)
	}
	// check holds one answer to its entries: want[k] for a known program
	// (k >= 0), a Known=false report for a first sight (-1), the error
	// frame for the bad identity (-2). A request the deadline answered is
	// counted, not checked: a loaded race run may be slow.
	check := func(what string, rec *httptest.ResponseRecorder, ks []int, sent []wire.SoftwareInfo) {
		if rec.Code == http.StatusServiceUnavailable {
			late.Add(1)
			return
		}
		var frames [][]byte
		for rest := rec.Body.Bytes(); len(rest) > 0; {
			payload, more, err := wire.SplitBinaryFrame(rest)
			if err != nil {
				t.Errorf("%s: %v", what, err)
				return
			}
			frames, rest = append(frames, payload), more
		}
		if rec.Code != http.StatusOK || len(frames) != len(ks) {
			t.Errorf("%s: status %d, %d frames, want 200 and %d", what, rec.Code, len(frames), len(ks))
			return
		}
		for i, k := range ks {
			frame := frame.Append(nil, frames[i])
			switch k {
			case -2:
				if !bytes.Equal(frame, wantBad) {
					t.Errorf("%s: entry %d: %q, want the bad identity's error frame", what, i, frame)
				}
			case -1:
				if rep, err := wire.DecodeBinaryReport(frames[i]); err != nil || rep.Known || rep.ID != sent[i].ID {
					t.Errorf("%s: first sight %d: %+v, %v", what, i, rep, err)
				}
			default:
				if !bytes.Equal(frame, want[k]) {
					t.Errorf("%s: program %d served\n%q\nwant\n%q", what, k, frame, want[k])
				}
			}
		}
	}
	// answered reports whether a single lookup's or a vote's answer is a
	// 200 to check, counting one the deadline gave.
	answered := func(what string, rec *httptest.ResponseRecorder) bool {
		if rec.Code == http.StatusServiceUnavailable {
			late.Add(1)
			return false
		}
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", what, rec.Code, rec.Body)
		}
		return rec.Code == http.StatusOK
	}
	// vote sends one vote in a codec and, acknowledged, keeps what was
	// sent with the comment's ID for the check at the end.
	vote := func(req wire.VoteRequest, xml bool) {
		var rec *httptest.ResponseRecorder
		var ack wire.VoteResponse
		var err error
		if xml {
			rec = postAs(wire.PathVote, wire.ContentType, bytes.NewReader(encodeXML(&req)))
			if answered("xml vote", rec) {
				err = wire.DecodeXML(rec.Body.Bytes(), &ack)
			}
		} else if rec = post(wire.PathVote, bytes.NewReader(wire.EncodeBinaryVote(&req))); answered("binary vote", rec) {
			var payload []byte
			if payload, _, err = wire.SplitBinaryFrame(rec.Body.Bytes()); err == nil {
				ack, err = wire.DecodeBinaryVoteAck(payload)
			}
		}
		if rec.Code != http.StatusOK {
			return
		}
		if err != nil || ack.CommentID == 0 {
			t.Errorf("vote ack %+v, %v", ack, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		votes = append(votes, castVote{req, ack.CommentID})
		sighted = append(sighted, req.Software)
	}

	for k := range infos {
		note(batchKey(k, nil), want[k])
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the batch that times out while its handler reads
		defer wg.Done()
		feeds := []string{"late"}
		sent := append([]wire.SoftwareInfo{firstSight(workers, 0)}, infos...)
		body := &lateBody{r: bytes.NewReader(wire.EncodeBinaryLookupBatch(sent, feeds)), hold: timeout + 150*time.Millisecond}
		if rec := post(wire.PathLookupBatch, body); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("late batch answered %d, want the deadline's 503", rec.Code)
		}
		for j := range infos {
			note(batchKey(j, feeds), want[j])
		}
		mu.Lock()
		sighted = append(sighted, sent[0])
		mu.Unlock()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % known
				// Every known program, in one batch: hits once any batch has filled them.
				check("hit batch", post(wire.PathLookupBatch, bytes.NewReader(wire.EncodeBinaryLookupBatch(infos, nil))), seq(known), nil)
				poisonPooled()
				// Misses under a feed list no other request names, a first
				// sight, and an identity that does not parse.
				feeds := []string{fmt.Sprintf("feed-%d-%d", w, i)}
				sent := []wire.SoftwareInfo{infos[k], firstSight(w, i), badID, infos[(k+1)%known]}
				check("miss batch", post(wire.PathLookupBatch, bytes.NewReader(wire.EncodeBinaryLookupBatch(sent, feeds))),
					[]int{k, -1, -2, (k + 1) % known}, sent)
				poisonPooled()
				note(batchKey(k, feeds), want[k])
				note(batchKey((k+1)%known, feeds), want[(k+1)%known])
				// A single binary miss and a single XML one, each keyed by its body.
				body := wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[k], Feeds: feeds})
				check("single miss", post(wire.PathLookup, bytes.NewReader(body)), []int{k}, nil)
				poisonPooled()
				note(append([]byte(repcache.FormatBinary), body...), want[k])
				body = encodeXML(&wire.LookupRequest{Software: infos[k], Feeds: feeds})
				if rec := postAs(wire.PathLookup, wire.ContentType, bytes.NewReader(body)); answered("xml miss", rec) && !bytes.Equal(rec.Body.Bytes(), wantXML[k]) {
					t.Errorf("xml miss: program %d served\n%s\nwant\n%s", k, rec.Body, wantXML[k])
				}
				poisonPooled()
				note(append([]byte(repcache.FormatXML), body...), wantXML[k])
				// Single first sights, binary and XML, and a lookup too long to cache.
				single, xmlSingle := firstSight(w, rounds+i), escaped(firstSight(w, 2*rounds+i))
				check("single first sight", post(wire.PathLookup, bytes.NewReader(wire.EncodeBinaryLookup(&wire.LookupRequest{Software: single}))),
					[]int{-1}, []wire.SoftwareInfo{single})
				poisonPooled()
				if rec := postAs(wire.PathLookup, wire.ContentType, bytes.NewReader(encodeXML(&wire.LookupRequest{Software: xmlSingle}))); answered("xml first sight", rec) {
					var rep wire.LookupResponse
					if err := wire.DecodeXML(rec.Body.Bytes(), &rep); err != nil || rep.Known || rep.ID != xmlSingle.ID || rep.Vendor != xmlSingle.Vendor {
						t.Errorf("xml first sight: %+v, %v", rep, err)
					}
				}
				poisonPooled()
				check("uncached", post(wire.PathLookup, bytes.NewReader(wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[k], Feeds: longFeeds}))),
					[]int{k}, nil)
				poisonPooled()
				// A vote in each codec, each on a program it puts on record.
				for c, xml := range []bool{false, true} {
					vote(wire.VoteRequest{Session: sessions[w], Software: escaped(firstSight(w, (3+c)*rounds+i)), Score: 1 + (i+c)%10,
						Behaviors: " displays-ads, keylogging ", Comment: fmt.Sprintf("<b>vote</b> %d & %d of %d", c, i, w)}, xml)
					poisonPooled()
				}
				mu.Lock()
				sighted = append(sighted, sent[1], single, xmlSingle)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	found := 0
	for key, report := range keys {
		if rep, ok := srv.reports.Probe(key); ok {
			found++
			if !bytes.Equal(rep.Data, report) {
				t.Errorf("cache entry under %q:\n%q\nwant\n%q", key, rep.Data, report)
			}
		}
	}
	if entries := srv.ReportCacheStats().Entries; found == 0 || found != entries {
		t.Errorf("found %d of the cache's %d entries under the keys the requests named", found, entries)
	}
	for _, info := range sighted {
		meta := metaOfInfo(t, info)
		sw, ok, err := srv.Store().GetSoftware(meta.ID)
		if err != nil || !ok || sw.Meta != meta {
			t.Errorf("first sight of %s recorded as %+v (found %v, %v), want %+v", info.ID, sw.Meta, ok, err, meta)
		}
	}
	for _, v := range votes {
		user, err := srv.SessionUser(v.Session)
		if err != nil {
			t.Fatal(err)
		}
		id := metaOfInfo(t, v.Software).ID
		behaviors, _ := core.ParseBehavior(v.Behaviors)
		r, ok, err := srv.Store().GetRating(id, user)
		if err != nil || !ok || r.Score != v.Score || r.Behaviors != behaviors {
			t.Errorf("vote of %s on %s stored as %+v (found %v, %v), want score %d, %v", user, v.Software.ID, r, ok, err, v.Score, behaviors)
		}
		c, ok, err := srv.Store().GetComment(v.commentID)
		if err != nil || !ok || c.Text != v.Comment || c.UserID != user || c.Software != id {
			t.Errorf("comment %d stored as %+v (found %v, %v), want %q by %s", v.commentID, c, ok, err, v.Comment, user)
		}
	}
	if len(votes) == 0 {
		t.Error("no vote was acknowledged")
	}
	t.Logf("%d cache entries checked, %d first sights, %d votes, %d requests answered by the deadline", found, len(sighted), len(votes), late.Load())
}

// metaOfInfo is a software block's record, plainly decoded.
func metaOfInfo(t *testing.T, info wire.SoftwareInfo) core.SoftwareMeta {
	t.Helper()
	id, err := core.ParseSoftwareID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return core.SoftwareMeta{ID: id, FileName: info.FileName, FileSize: info.FileSize, Vendor: info.Vendor, Version: info.Version}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestFeedCreatedAfterSubscribeIsNotCached: a request resolves its feed
// list once, before its first fill. A feed created after that, and
// published to (which invalidates the program before the fill begins), is
// missing from the reports the request still builds, so those are served
// but not cached, and the next request's report carries the advice.
func TestFeedCreatedAfterSubscribeIsNotCached(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	meta := testMeta(1)
	if _, err := srv.Lookup(meta); err != nil { // first sight: on record from here on
		t.Fatal(err)
	}
	sc := &scope{header: make(http.Header), bin: true}
	advice := func() int {
		t.Helper()
		var key [reportKeyScratch]byte
		var data []byte
		err := srv.cachedReport(sc, sc.rep.key(key[:0], repcache.FormatBinary, meta.ID), meta, nil, false,
			func(r repcache.Report) { data = bytes.Clone(r.Data) })
		payload, _, splitErr := wire.SplitBinaryFrame(data)
		rep, decodeErr := wire.DecodeBinaryReport(payload)
		if err != nil || splitErr != nil || decodeErr != nil {
			t.Fatal(err, splitErr, decodeErr)
		}
		return len(rep.Advice)
	}
	subscribe(srv, &sc.rep, []string{"lab"})
	srv.Feed("lab").Publish(ExpertAdvice{Software: meta.ID, Score: 3, Note: "published meanwhile"})
	if n, st := advice(), srv.ReportCacheStats(); n != 0 || st.Stored != 0 {
		t.Fatalf("the request's own report: %d advice, %d stored; want it built without the new feed and not cached", n, st.Stored)
	}
	subscribe(srv, &sc.rep, []string{"lab"})
	if n, st := advice(), srv.ReportCacheStats(); n != 1 || st.Stored != 1 {
		t.Fatalf("the next request's report: %d advice, %d stored; want 1 and 1", n, st.Stored)
	}
}
