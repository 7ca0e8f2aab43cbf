package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/wire"
)

// reportFixture is a server scripted into a state that exercises every
// branch of report assembly: programs with 0, 3 and 10 visible comments,
// a hidden comment, authors whose trust factors differ and authors whose
// trust factors tie, a vendor with no published score, a program whose
// vendor field is stripped, and two expert feeds with advice. Everything
// runs on a virtual clock, so the reports are the same bytes every run.
type reportFixture struct {
	srv     *Server
	handler http.Handler
}

// The fixture's programs, by testMeta seed.
const (
	fixNone          = 1 // bootstrapped, no comments, vendor Acme
	fixThree         = 2 // 3 visible comments (one trusted author, two tied) + 1 hidden
	fixTen           = 3 // 10 comments, 4 of them by authors of equal trust
	fixUnknownVendor = 4 // voted after the last aggregation: no score, no vendor record
	fixStripped      = 5 // empty vendor field
	fixFirstSight    = 9 // never seen before its lookup
)

var fixFeeds = []string{"cert.example.org", "lab.example.net", "nobody.example"}

func fixMeta(seed byte) core.SoftwareMeta {
	m := testMeta(seed)
	switch seed {
	case fixTen:
		m.Vendor = "Globex"
	case fixUnknownVendor:
		m.Vendor = "Nobody Inc"
	case fixStripped:
		m.Vendor = ""
	}
	return m
}

func fixInfo(seed byte) wire.SoftwareInfo {
	m := fixMeta(seed)
	return wire.SoftwareInfo{ID: m.ID.String(), FileName: m.FileName, FileSize: m.FileSize, Vendor: m.Vendor, Version: m.Version}
}

func newReportFixture(t *testing.T, pseudonyms bool) *reportFixture {
	t.Helper()
	srv, clock := newTestServer(t, func(c *Config) { c.UsePseudonyms = pseudonyms })
	sess := make(map[string]string)
	signup := func(name string) { sess[name] = registerAndLogin(t, srv, name) }
	for i := 0; i < 10; i++ {
		signup(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 3; i++ {
		signup(fmt.Sprintf("j%d", i))
	}
	cids := make(map[string]uint64)
	vote := func(label, user string, seed byte, score int, b core.Behavior, comment string) {
		t.Helper()
		clock.Advance(7 * time.Minute)
		cid, err := srv.Vote(sess[user], fixMeta(seed), score, b, comment)
		if err != nil {
			t.Fatalf("vote %s by %s: %v", label, user, err)
		}
		cids[label] = cid
	}
	remark := func(user, label string, positive bool) {
		t.Helper()
		clock.Advance(3 * time.Minute)
		if err := srv.Remark(sess[user], cids[label], positive); err != nil {
			t.Fatalf("remark on %s by %s: %v", label, user, err)
		}
	}

	if err := srv.Bootstrap([]BootstrapEntry{{
		Meta: fixMeta(fixNone), Score: 6.5, Votes: 120, Behaviors: core.BehaviorDisplaysAds,
	}}); err != nil {
		t.Fatal(err)
	}
	// Ten comments in submission order a0..a9; a0..a3 never receive a
	// remark, so their trust factors tie.
	for i := 0; i < 10; i++ {
		vote(fmt.Sprintf("ten-%d", i), fmt.Sprintf("a%d", i), fixTen, 1+i, core.BehaviorTracksUsage,
			fmt.Sprintf("comment %d on the big one <&>", i))
	}
	// Three visible comments plus a1's hidden one. a5 is remarked up and
	// sorts first; a4 is remarked down, which the trust floor absorbs, so
	// a4 and a0 tie and keep submission order.
	vote("three-low", "a4", fixThree, 3, core.BehaviorDisplaysAds, "pop-ups everywhere")
	vote("three-hidden", "a1", fixThree, 1, 0, "buy cheap pills")
	vote("three-mid", "a0", fixThree, 7, 0, "works for me")
	vote("three-high", "a5", fixThree, 8, core.BehaviorStartupRegistration, "fine, but registers at startup")
	vote("stripped-0", "a0", fixStripped, 5, core.BehaviorBundledSoftware, "no company name, bundles a toolbar")
	if err := srv.Store().SetCommentHidden(cids["three-hidden"], true); err != nil {
		t.Fatal(err)
	}

	clock.Advance(24 * time.Hour)
	remark("j0", "three-low", false)
	remark("j1", "three-low", false)
	remark("j0", "three-high", true)
	remark("j1", "three-high", true)
	remark("j2", "three-high", true)
	remark("j0", "ten-6", true)
	remark("j1", "ten-7", false)
	remark("j2", "ten-8", true)
	remark("j0", "ten-9", true)
	remark("j1", "ten-9", true)
	clock.Advance(24 * time.Hour)
	if err := srv.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	// After the aggregation: known software, nothing published about it
	// or its vendor.
	vote("late", "a2", fixUnknownVendor, 4, 0, "")

	for i, name := range fixFeeds[:2] {
		srv.Feed(name).Publish(ExpertAdvice{
			Software:  fixMeta(fixThree).ID,
			Score:     2.5 + float64(i),
			Behaviors: core.BehaviorDisplaysAds,
			Note:      fmt.Sprintf("advisory %d", i),
		})
	}
	return &reportFixture{srv: srv, handler: srv.Handler()}
}

// post sends one request through the full handler chain.
func (f *reportFixture) post(t *testing.T, path, contentType string, body []byte) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s (%s): status %d: %s", path, contentType, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// lookup returns the binary and XML bodies of one report.
func (f *reportFixture) lookup(t *testing.T, seed byte, feeds []string) (bin, xml []byte) {
	t.Helper()
	req := &wire.LookupRequest{Software: fixInfo(seed), Feeds: feeds}
	var buf bytes.Buffer
	if err := wire.Encode(&buf, req); err != nil {
		t.Fatal(err)
	}
	bin = f.post(t, wire.PathLookup, wire.BinaryContentType, wire.EncodeBinaryLookup(req))
	xml = f.post(t, wire.PathLookup, wire.ContentType, buf.Bytes())
	return bin, xml
}

// lean returns both encodings of the brownout report.
func (f *reportFixture) lean(t *testing.T, seed byte) (bin, xml []byte) {
	t.Helper()
	resp, err := f.srv.buildLookupResponse(new(reportScratch), fixMeta(seed), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return wire.EncodeBinaryReport(resp), wire.AppendXML(nil, resp)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_REPORT_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_REPORT_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\n got: %q\nwant: %q", name, got, want)
	}
}

// TestReportBytesGolden pins the exact bytes of lookup reports, in both
// encodings, across every branch of report assembly. The goldens were
// captured at 03455e6, before the read path became one transaction, and
// must never need refreshing for a change that only moves how a report
// is read: a report is a function of the stored state, not of how many
// transactions read it.
func TestReportBytesGolden(t *testing.T) {
	f := newReportFixture(t, false)
	cases := []struct {
		name  string
		fetch func() (bin, xml []byte)
	}{
		{"none", func() ([]byte, []byte) { return f.lookup(t, fixNone, nil) }},
		{"three", func() ([]byte, []byte) { return f.lookup(t, fixThree, nil) }},
		{"ten", func() ([]byte, []byte) { return f.lookup(t, fixTen, nil) }},
		{"unknown_vendor", func() ([]byte, []byte) { return f.lookup(t, fixUnknownVendor, nil) }},
		{"stripped_vendor", func() ([]byte, []byte) { return f.lookup(t, fixStripped, nil) }},
		{"feeds", func() ([]byte, []byte) { return f.lookup(t, fixThree, fixFeeds) }},
		{"lean", func() ([]byte, []byte) { return f.lean(t, fixThree) }},
		{"pseudonyms", func() ([]byte, []byte) { return newReportFixture(t, true).lookup(t, fixThree, nil) }},
	}
	for _, tc := range cases {
		bin, xml := tc.fetch()
		checkGolden(t, "report_"+tc.name+".golden.bin", bin)
		checkGolden(t, "report_"+tc.name+".golden.xml", xml)
	}

	// The batch endpoint answers with the same frames, back to back.
	seeds := []byte{fixNone, fixThree, fixTen, fixUnknownVendor, fixStripped}
	infos := make([]wire.SoftwareInfo, len(seeds))
	var want []byte
	for i, seed := range seeds {
		infos[i] = fixInfo(seed)
		bin, _ := f.lookup(t, seed, nil)
		want = append(want, bin...)
	}
	got := f.post(t, wire.PathLookupBatch, wire.BinaryContentType, wire.EncodeBinaryLookupBatch(infos, nil))
	if !bytes.Equal(got, want) {
		t.Errorf("batch body differs from its entries' single-lookup frames:\n got: %q\nwant: %q", got, want)
	}

	// First sight: Known=false, then the registration shows.
	first, _ := f.lookup(t, fixFirstSight, nil)
	checkGolden(t, "report_first_sight.golden.bin", first)
	_, again := f.lookup(t, fixFirstSight, nil)
	checkGolden(t, "report_second_sight.golden.xml", again)
}
