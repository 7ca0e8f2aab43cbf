package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// httpFixture spins up the full server over httptest.
type httpFixture struct {
	t      *testing.T
	srv    *Server
	ts     *httptest.Server
	client *http.Client
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	s, err := New(Config{
		Store:       store,
		Clock:       vclock.NewVirtual(vclock.Epoch),
		EmailPepper: "pepper",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &httpFixture{t: t, srv: s, ts: ts, client: ts.Client()}
}

// post sends req as XML and decodes a 2xx response into resp, returning
// the wire error for non-2xx statuses.
func (f *httpFixture) post(path string, req, resp interface{}) error {
	f.t.Helper()
	var buf bytes.Buffer
	if err := wire.Encode(&buf, req); err != nil {
		f.t.Fatal(err)
	}
	httpResp, err := f.client.Post(f.ts.URL+path, wire.ContentType, &buf)
	if err != nil {
		f.t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode/100 != 2 {
		var werr wire.ErrorResponse
		if err := wire.Decode(httpResp.Body, &werr); err != nil {
			f.t.Fatalf("undecodable error body (status %d): %v", httpResp.StatusCode, err)
		}
		return &werr
	}
	if resp == nil {
		return nil
	}
	return wire.Decode(httpResp.Body, resp)
}

func (f *httpFixture) get(path string, resp interface{}) error {
	f.t.Helper()
	httpResp, err := f.client.Get(f.ts.URL + path)
	if err != nil {
		f.t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode/100 != 2 {
		return &wire.ErrorResponse{Code: wire.CodeInternal, Message: httpResp.Status}
	}
	if resp == nil {
		return nil
	}
	return wire.Decode(httpResp.Body, resp)
}

// signupOverHTTP walks register → activation mail → activate → login.
func (f *httpFixture) signupOverHTTP(username string) string {
	f.t.Helper()
	email := username + "@example.com"
	if err := f.post(wire.PathRegister, wire.RegisterRequest{
		Username: username, Password: "pw", Email: email,
	}, &wire.RegisterResponse{}); err != nil {
		f.t.Fatalf("register: %v", err)
	}
	mail, ok := f.srv.Mailer().(*MemoryMailer).Read(email)
	if !ok {
		f.t.Fatal("no activation mail")
	}
	if err := f.post(wire.PathActivate, wire.ActivateRequest{Token: mail.Token}, &wire.ActivateResponse{}); err != nil {
		f.t.Fatalf("activate: %v", err)
	}
	var login wire.LoginResponse
	if err := f.post(wire.PathLogin, wire.LoginRequest{Username: username, Password: "pw"}, &login); err != nil {
		f.t.Fatalf("login: %v", err)
	}
	return login.Token
}

func wireMeta(seed byte) wire.SoftwareInfo {
	m := testMeta(seed)
	return wire.SoftwareInfo{
		ID:       m.ID.String(),
		FileName: m.FileName,
		FileSize: m.FileSize,
		Vendor:   m.Vendor,
		Version:  m.Version,
	}
}

func TestHTTPFullFlow(t *testing.T) {
	f := newHTTPFixture(t)
	session := f.signupOverHTTP("alice")

	// Lookup an unknown executable.
	var look wire.LookupResponse
	if err := f.post(wire.PathLookup, wire.LookupRequest{Software: wireMeta(1)}, &look); err != nil {
		t.Fatal(err)
	}
	if look.Known {
		t.Fatal("first lookup must be unknown")
	}

	// Vote with behaviours and a comment.
	var vote wire.VoteResponse
	err := f.post(wire.PathVote, wire.VoteRequest{
		Session:   session,
		Software:  wireMeta(1),
		Score:     3,
		Behaviors: (core.BehaviorDisplaysAds | core.BehaviorBrokenUninstall).String(),
		Comment:   "pop-ups and no uninstaller",
	}, &vote)
	if err != nil {
		t.Fatal(err)
	}
	if vote.CommentID == 0 {
		t.Fatal("comment id missing")
	}

	// A second user remarks the comment.
	session2 := f.signupOverHTTP("bob")
	if err := f.post(wire.PathRemark, wire.RemarkRequest{
		Session: session2, CommentID: vote.CommentID, Positive: true,
	}, &wire.RemarkResponse{}); err != nil {
		t.Fatal(err)
	}

	// Aggregate and look up again.
	if err := f.srv.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	if err := f.post(wire.PathLookup, wire.LookupRequest{Software: wireMeta(1)}, &look); err != nil {
		t.Fatal(err)
	}
	if !look.Known || look.Votes != 1 || look.Score != 3 {
		t.Fatalf("lookup after aggregation = %+v", look)
	}
	if !strings.Contains(look.Behaviors, "displays-ads") {
		t.Fatalf("behaviours = %q", look.Behaviors)
	}
	if len(look.Comments) != 1 || look.Comments[0].Positive != 1 {
		t.Fatalf("comments = %+v", look.Comments)
	}

	// Vendor report.
	var vend wire.VendorResponse
	if err := f.post(wire.PathVendor, wire.VendorRequest{Vendor: "Acme"}, &vend); err != nil {
		t.Fatal(err)
	}
	if !vend.Known || vend.Score != 3 {
		t.Fatalf("vendor = %+v", vend)
	}

	// Stats.
	var stats wire.StatsResponse
	if err := f.get(wire.PathStats, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Users != 2 || stats.Software != 1 || stats.Ratings != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	f := newHTTPFixture(t)
	session := f.signupOverHTTP("alice")

	// Duplicate vote -> already-rated, 409.
	req := wire.VoteRequest{Session: session, Software: wireMeta(1), Score: 5}
	if err := f.post(wire.PathVote, req, &wire.VoteResponse{}); err != nil {
		t.Fatal(err)
	}
	err := f.post(wire.PathVote, req, nil)
	var werr *wire.ErrorResponse
	if !errorAs(err, &werr) || werr.Code != wire.CodeAlreadyRated {
		t.Fatalf("dup vote err = %v", err)
	}

	// Bad session -> bad-session.
	err = f.post(wire.PathVote, wire.VoteRequest{Session: "nope", Software: wireMeta(2), Score: 5}, nil)
	if !errorAs(err, &werr) || werr.Code != wire.CodeBadSession {
		t.Fatalf("bad session err = %v", err)
	}

	// Score out of range -> bad-request.
	err = f.post(wire.PathVote, wire.VoteRequest{Session: session, Software: wireMeta(3), Score: 42}, nil)
	if !errorAs(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Fatalf("bad score err = %v", err)
	}

	// Malformed software ID -> bad-request: the sender's mistake, not a
	// failing server.
	err = f.post(wire.PathLookup, wire.LookupRequest{Software: wire.SoftwareInfo{ID: "zz"}}, nil)
	if !errorAs(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Fatalf("bad software id err = %v", err)
	}

	// Duplicate registration -> user-exists.
	err = f.post(wire.PathRegister, wire.RegisterRequest{Username: "alice", Password: "x", Email: "other@x.com"}, nil)
	if !errorAs(err, &werr) || werr.Code != wire.CodeUserExists {
		t.Fatalf("dup user err = %v", err)
	}

	// Wrong password -> bad-credentials, 401.
	err = f.post(wire.PathLogin, wire.LoginRequest{Username: "alice", Password: "wrong"}, nil)
	if !errorAs(err, &werr) || werr.Code != wire.CodeBadCreds {
		t.Fatalf("wrong password err = %v", err)
	}

	// Garbage body -> bad-request.
	resp, errHTTP := f.client.Post(f.ts.URL+wire.PathLogin, wire.ContentType, strings.NewReader("not-xml"))
	if errHTTP != nil {
		t.Fatal(errHTTP)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status = %d", resp.StatusCode)
	}

	// GET on a POST-only endpoint -> 405.
	resp, errHTTP = f.client.Get(f.ts.URL + wire.PathVote)
	if errHTTP != nil {
		t.Fatal(errHTTP)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET vote status = %d", resp.StatusCode)
	}
}

// TestNonPostAnswersWireError: every POST-only path answers another
// method 405 with Allow and an error document a client can decode — a
// binary frame where the request negotiated one.
func TestNonPostAnswersWireError(t *testing.T) {
	f := newHTTPFixture(t)
	get := func(path, contentType string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, f.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := f.client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Fatalf("GET %s: status %d, Allow %q", path, resp.StatusCode, resp.Header.Get("Allow"))
		}
		return resp
	}
	for _, path := range []string{wire.PathRegister, wire.PathActivate, wire.PathLogin, wire.PathLookup,
		wire.PathLookupBatch, wire.PathVote, wire.PathRemark, wire.PathVendor} {
		resp := get(path, "")
		var werr wire.ErrorResponse
		if err := wire.Decode(resp.Body, &werr); err != nil || werr.Code != wire.CodeBadRequest {
			t.Fatalf("GET %s: %s body decodes to %+v, %v", path, resp.Header.Get("Content-Type"), werr, err)
		}
	}
	for _, path := range []string{wire.PathLookup, wire.PathLookupBatch, wire.PathVote} {
		resp := get(path, wire.BinaryContentType)
		frames := readFrames(t, resp.Body)
		if resp.Header.Get("Content-Type") != wire.BinaryContentType || len(frames) != 1 {
			t.Fatalf("binary GET %s: %s, %d frames", path, resp.Header.Get("Content-Type"), len(frames))
		}
		if werr, err := wire.DecodeBinaryError(frames[0]); err != nil || werr.Code != wire.CodeBadRequest {
			t.Fatalf("binary GET %s: frame decodes to %+v, %v", path, werr, err)
		}
	}
}

func errorAs(err error, target **wire.ErrorResponse) bool {
	e, ok := err.(*wire.ErrorResponse)
	if ok {
		*target = e
	}
	return ok
}

func TestHTTPChallengeEndpoint(t *testing.T) {
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	s, err := New(Config{Store: store, Clock: vclock.NewVirtual(vclock.Epoch), PuzzleDifficulty: 6})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + wire.PathChallenge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ch wire.ChallengeResponse
	if err := wire.Decode(resp.Body, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.CaptchaNonce == "" || ch.PuzzleNonce == "" || ch.PuzzleDifficulty != 6 {
		t.Fatalf("challenge = %+v", ch)
	}
}

func TestWebView(t *testing.T) {
	f := newHTTPFixture(t)
	session := f.signupOverHTTP("alice")
	if err := f.post(wire.PathVote, wire.VoteRequest{
		Session: session, Software: wireMeta(1), Score: 9, Comment: "excellent & safe",
	}, &wire.VoteResponse{}); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.RunAggregation(); err != nil {
		t.Fatal(err)
	}

	// Index lists the software.
	resp, err := f.client.Get(f.ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "tool-1.exe") {
		t.Fatalf("index status=%d body=%.200s", resp.StatusCode, body)
	}

	// Detail page shows the comment, HTML-escaped.
	m := testMeta(1)
	resp, err = f.client.Get(f.ts.URL + "/software/" + m.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("detail status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "excellent &amp; safe") {
		t.Fatalf("comment not escaped/present: %.300s", body)
	}

	// Unknown software -> 404.
	resp, _ = f.client.Get(f.ts.URL + "/software/" + strings.Repeat("ab", 20))
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown software status = %d", resp.StatusCode)
	}
	resp, _ = f.client.Get(f.ts.URL + "/software/junk")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("junk id status = %d", resp.StatusCode)
	}
	resp, _ = f.client.Get(f.ts.URL + "/no-such-page")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path status = %d", resp.StatusCode)
	}
}

func TestCommentsCarryAuthorTrustAndSortByIt(t *testing.T) {
	f := newHTTPFixture(t)
	meta := wireMeta(7)

	// Author A earns trust before commenting; author B stays at 1.
	sessionA := f.signupOverHTTP("trusted-author")
	sessionB := f.signupOverHTTP("new-author")

	var voteA wire.VoteResponse
	if err := f.post(wire.PathVote, wire.VoteRequest{
		Session: sessionA, Software: wireMeta(6), Score: 7, Comment: "earlier work",
	}, &voteA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s := f.signupOverHTTP(fmt.Sprintf("fan-%d", i))
		if err := f.post(wire.PathRemark, wire.RemarkRequest{
			Session: s, CommentID: voteA.CommentID, Positive: true,
		}, &wire.RemarkResponse{}); err != nil {
			t.Fatal(err)
		}
	}

	// B comments on the target first, then A: submission order is B, A.
	if err := f.post(wire.PathVote, wire.VoteRequest{
		Session: sessionB, Software: meta, Score: 5, Comment: "seems ok",
	}, &wire.VoteResponse{}); err != nil {
		t.Fatal(err)
	}
	if err := f.post(wire.PathVote, wire.VoteRequest{
		Session: sessionA, Software: meta, Score: 3, Comment: "bundles adware, beware",
	}, &wire.VoteResponse{}); err != nil {
		t.Fatal(err)
	}

	var look wire.LookupResponse
	if err := f.post(wire.PathLookup, wire.LookupRequest{Software: meta}, &look); err != nil {
		t.Fatal(err)
	}
	if len(look.Comments) != 2 {
		t.Fatalf("comments = %d", len(look.Comments))
	}
	// The trusted author's comment is listed first despite being
	// submitted second, and carries their higher trust factor.
	if look.Comments[0].User != "trusted-author" {
		t.Fatalf("first comment by %q, want the trusted author", look.Comments[0].User)
	}
	if look.Comments[0].AuthorTrust <= look.Comments[1].AuthorTrust {
		t.Fatalf("trust ordering wrong: %v vs %v",
			look.Comments[0].AuthorTrust, look.Comments[1].AuthorTrust)
	}
	if look.Comments[1].AuthorTrust != 1 {
		t.Fatalf("new author trust = %v, want 1", look.Comments[1].AuthorTrust)
	}
}

func TestWebSearch(t *testing.T) {
	f := newHTTPFixture(t)
	session := f.signupOverHTTP("alice")
	for seed := byte(1); seed <= 3; seed++ {
		if err := f.post(wire.PathVote, wire.VoteRequest{
			Session: session, Software: wireMeta(seed), Score: 6,
		}, &wire.VoteResponse{}); err != nil && seed == 1 {
			t.Fatal(err)
		}
	}
	f.srv.RunAggregation()

	fetch := func(q string) string {
		resp, err := f.client.Get(f.ts.URL + "/search?q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("search status = %d", resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	// File-name substring match.
	page := fetch("tool-1")
	if !strings.Contains(page, "tool-1.exe") || strings.Contains(page, "tool-2.exe") {
		t.Fatalf("file-name search wrong:\n%.400s", page)
	}
	// Vendor match is case-insensitive.
	page = fetch("acme")
	if !strings.Contains(page, "tool-1.exe") || !strings.Contains(page, "tool-3.exe") {
		t.Fatalf("vendor search wrong:\n%.400s", page)
	}
	// No match: the page renders, just without rows.
	page = fetch("nonexistent-zzz")
	if strings.Contains(page, "tool-") {
		t.Fatal("no-match search returned rows")
	}
	// Empty query: form page only.
	page = fetch("")
	if strings.Contains(page, "tool-") {
		t.Fatal("empty query returned rows")
	}
}
