package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/resilience"
	"softreputation/internal/server"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// recordingHandler wraps a server handler and records each request's
// path and content type, so tests can assert which protocol was spoken.
type recordingHandler struct {
	next http.Handler

	mu   sync.Mutex
	reqs []recordedReq
}

type recordedReq struct {
	path        string
	contentType string
}

func (h *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.reqs = append(h.reqs, recordedReq{path: r.URL.Path, contentType: r.Header.Get("Content-Type")})
	h.mu.Unlock()
	h.next.ServeHTTP(w, r)
}

// count returns how many recorded requests hit path with contentType
// ("*" matches any).
func (h *recordingHandler) count(path, contentType string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, r := range h.reqs {
		if r.path == path && (contentType == "*" || r.contentType == contentType) {
			n++
		}
	}
	return n
}

// binFixture is a server with request recording.
type binFixture struct {
	srv *server.Server
	ts  *httptest.Server
	rec *recordingHandler
}

func newBinFixture(t *testing.T, mutate func(*server.Config)) *binFixture {
	t.Helper()
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	cfg := server.Config{Store: store, Clock: vclock.NewVirtual(vclock.Epoch), EmailPepper: "pepper"}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingHandler{next: srv.Handler()}
	ts := httptest.NewServer(rec)
	t.Cleanup(ts.Close)
	return &binFixture{srv: srv, ts: ts, rec: rec}
}

// preBinary puts in front of the fixture's server what a server from
// before the binary protocol answered a frame with: its XML decoder's
// 400 bad-request, as an XML document, on /api/lookup and /api/vote, and
// 404 on /api/lookup-batch and /api/session, routes it did not have.
// Everything else reaches the server.
func (f *binFixture) preBinary() *binFixture {
	next := f.rec.next
	f.rec.next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		binary := r.Header.Get("Content-Type") == wire.BinaryContentType
		switch {
		case r.URL.Path == wire.PathLookupBatch, r.URL.Path == wire.PathSession:
			http.NotFound(w, r)
		case binary && (r.URL.Path == wire.PathLookup || r.URL.Path == wire.PathVote):
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", wire.ContentType)
			w.WriteHeader(http.StatusBadRequest)
			_ = wire.Encode(w, &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: "XML syntax error on line 1: invalid character"})
		default:
			next.ServeHTTP(w, r)
		}
	})
	return f
}

func (f *binFixture) signup(t *testing.T, api *API, username string) string {
	t.Helper()
	email := username + "@example.com"
	if err := api.Register(context.Background(), wire.RegisterRequest{Username: username, Password: "pw", Email: email}); err != nil {
		t.Fatalf("register: %v", err)
	}
	mail, ok := f.srv.Mailer().(*server.MemoryMailer).Read(email)
	if !ok {
		t.Fatal("no activation mail")
	}
	if _, err := api.Activate(context.Background(), mail.Token); err != nil {
		t.Fatalf("activate: %v", err)
	}
	session, err := api.Login(context.Background(), username, "pw")
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	return session
}

// pinnedNoSession returns the endpoints api has pinned as taking no
// session.
func pinnedNoSession(api *API) []string {
	api.protoMu.Lock()
	defer api.protoMu.Unlock()
	var out []string
	for base, pinned := range api.noSession {
		if pinned {
			out = append(out, base)
		}
	}
	return out
}

func binMeta(seed byte) core.SoftwareMeta {
	content := []byte{seed, 0xC3, seed, 0x11}
	return core.SoftwareMeta{
		ID:       core.ComputeSoftwareID(content),
		FileName: fmt.Sprintf("bin-%d.exe", seed),
		FileSize: 4,
		Vendor:   "Acme",
		Version:  "1.0",
	}
}

// TestBinaryClientSpeaksBinary drives lookup and vote through the
// binary arm against a binary-capable server and checks no XML was
// exchanged on those paths.
func TestBinaryClientSpeaksBinary(t *testing.T) {
	f := newBinFixture(t, nil)
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
	session := f.signup(t, api, "alice")

	rep, err := api.Lookup(context.Background(), binMeta(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Known {
		t.Fatal("first lookup must be unknown")
	}
	cid, err := api.Vote(context.Background(), session, binMeta(1), Rating{Score: 7, Comment: "ok"})
	if err != nil || cid == 0 {
		t.Fatalf("vote: %d, %v", cid, err)
	}

	if n := f.rec.count(wire.PathLookup, wire.BinaryContentType); n != 1 {
		t.Fatalf("binary lookups = %d, want 1", n)
	}
	if n := f.rec.count(wire.PathLookup, wire.ContentType); n != 0 {
		t.Fatalf("XML lookups = %d, want 0", n)
	}
	if n := f.rec.count(wire.PathVote, wire.BinaryContentType); n != 1 {
		t.Fatalf("binary votes = %d, want 1", n)
	}
	if eps := pinnedNoSession(api); len(eps) != 0 {
		t.Fatalf("endpoint wrongly pinned: %v", eps)
	}
}

// TestBinaryClientFallsBackToXML pins the negotiation: against a
// pre-binary server the first binary attempt, the session's upgrade,
// earns a 404 that is not a frame, the client re-sends as XML within the
// same call, and later calls skip the binary attempt entirely.
func TestBinaryClientFallsBackToXML(t *testing.T) {
	f := newBinFixture(t, nil).preBinary()
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()

	if _, err := api.Lookup(context.Background(), binMeta(2)); err != nil {
		t.Fatalf("lookup against a pre-binary server: %v", err)
	}
	if eps := pinnedNoSession(api); len(eps) != 1 || eps[0] != f.ts.URL {
		t.Fatalf("endpoint not pinned: %v", eps)
	}
	if n := f.rec.count(wire.PathSession, "*"); n != 1 {
		t.Fatalf("binary attempts = %d, want exactly 1", n)
	}
	if n := f.rec.count(wire.PathLookup, wire.ContentType); n != 1 {
		t.Fatalf("XML lookups = %d, want 1", n)
	}

	// The pin sticks: the second lookup goes straight to XML.
	if _, err := api.Lookup(context.Background(), binMeta(3)); err != nil {
		t.Fatal(err)
	}
	if n := f.rec.count(wire.PathSession, "*"); n != 1 {
		t.Fatalf("binary attempts after pin = %d, want still 1", n)
	}
}

// preXMLSession puts in front of the fixture's server what a server from
// before XML sessions answered their upgrade with: the 400 bad-request,
// as an XML document, for an Upgrade token it did not know.
func (f *binFixture) preXMLSession() *binFixture {
	next := f.rec.next
	f.rec.next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.PathSession || !strings.EqualFold(r.Header.Get("Upgrade"), wire.SessionUpgradeXML) {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusBadRequest)
		_ = wire.Encode(w, &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: "session: Upgrade: " + wire.SessionUpgrade + " required"})
	})
	return f
}

// TestMixedVersionPair runs a current primary behind an older replica (a
// mid-rollout topology): the replica refuses the client's session, so
// reads land on it in XML over HTTP and pin it; the vote is redirected by
// the replica's XML 421 and lands on the primary on a session in the
// client's codec. Both protocols interoperate inside one logical call.
// The older replica is one from before the binary protocol for a binary
// client, and one from before XML sessions for an XML client.
func TestMixedVersionPair(t *testing.T) {
	for _, tc := range []struct {
		name        string
		binary      bool
		older       func(*binFixture) *binFixture
		contentType string
	}{
		{"binary client, pre-binary replica", true, (*binFixture).preBinary, wire.BinaryContentType},
		{"XML client, replica from before XML sessions", false, (*binFixture).preXMLSession, wire.ContentType},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary := newBinFixture(t, nil)
			replica := tc.older(newBinFixture(t, func(c *server.Config) {
				c.Replica = true
				c.PrimaryURL = primary.ts.URL
			}))

			// Replica listed first: reads prefer it, writes must hop.
			api := NewFailoverAPI([]string{replica.ts.URL, primary.ts.URL}, nil)
			if tc.binary {
				api.EnableBinaryProtocol()
			}
			session := primary.signup(t, NewAPI(primary.ts.URL, nil), "alice")

			if _, err := api.Lookup(context.Background(), binMeta(4)); err != nil {
				t.Fatalf("lookup via the older replica: %v", err)
			}
			if n := replica.rec.count(wire.PathLookup, wire.ContentType); n != 1 {
				t.Fatalf("replica XML lookups = %d, want 1", n)
			}
			if eps := pinnedNoSession(api); len(eps) != 1 || eps[0] != replica.ts.URL {
				t.Fatalf("pinned %v, want the replica", eps)
			}

			if _, err := api.Vote(context.Background(), session, binMeta(4), Rating{Score: 6}); err != nil {
				t.Fatalf("vote across mixed-version pair: %v", err)
			}
			if n, up := primary.rec.count(wire.PathVote, tc.contentType), primary.rec.count(wire.PathSession, "*"); n != 1 || up != 1 {
				t.Fatalf("primary votes = %d on %d sessions, want 1 on 1", n, up)
			}
		})
	}
}

// TestLookupBatch exercises the batched call against both server
// generations: one frame per chunk on a binary server, sequential
// singles on a pre-binary one — with index-aligned results either way.
func TestLookupBatch(t *testing.T) {
	metas := []core.SoftwareMeta{binMeta(10), binMeta(11), binMeta(12), binMeta(13)}

	t.Run("binary", func(t *testing.T) {
		f := newBinFixture(t, nil)
		api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
		results, err := api.LookupBatch(context.Background(), metas)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(metas) {
			t.Fatalf("results = %d", len(results))
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("entry %d: %v", i, res.Err)
			}
		}
		if n := f.rec.count(wire.PathLookupBatch, wire.BinaryContentType); n != 1 {
			t.Fatalf("batch requests = %d, want 1", n)
		}
		if n := f.rec.count(wire.PathLookup, "*"); n != 0 {
			t.Fatalf("single lookups = %d, want 0", n)
		}
	})

	t.Run("xml-fallback", func(t *testing.T) {
		f := newBinFixture(t, nil).preBinary()
		api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
		results, err := api.LookupBatch(context.Background(), metas)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("entry %d: %v", i, res.Err)
			}
		}
		if n := f.rec.count(wire.PathLookup, wire.ContentType); n != len(metas) {
			t.Fatalf("sequential XML lookups = %d, want %d", n, len(metas))
		}
	})
}

// TestBinaryApplicationErrorDoesNotPin: an application 4xx that arrives
// as a binary frame proves the endpoint speaks binary. An out-of-range
// vote is answered 400 bad-request; the client must surface it as it is,
// after one request, and keep speaking binary to the endpoint.
func TestBinaryApplicationErrorDoesNotPin(t *testing.T) {
	f := newBinFixture(t, nil)
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
	session := f.signup(t, api, "alice")

	_, err := api.Vote(context.Background(), session, binMeta(5), Rating{Score: 11})
	var werr *wire.ErrorResponse
	var httpErr *resilience.HTTPStatusError
	if !errors.As(err, &httpErr) || httpErr.Status != http.StatusBadRequest ||
		!errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Fatalf("out-of-range vote: %v, want the server's 400 bad-request", err)
	}
	if n := f.rec.count(wire.PathVote, "*"); n != 1 {
		t.Fatalf("votes on the wire = %d, want 1 (the bad vote was re-sent)", n)
	}
	if eps := pinnedNoSession(api); len(eps) != 0 {
		t.Fatalf("a binary 400 pinned the endpoint: %v", eps)
	}
}

// TestRequestHeaderSetPerCodec pins what each codec puts on the wire for
// a GET, a lookup, a vote and a batch: method, path, the exact header set
// (every header is bytes on every request, and a value string the server
// allocates) and the body bytes. The server picks the codec by
// Content-Type alone, and nothing reads User-Agent, Accept or
// Accept-Encoding, so none is sent. A GET carries no Content-Type either.
// A batch has no XML document: an XML client sends one lookup per entry.
// Lookups and votes ride a session in the client's codec: the handler
// chain sees its upgrade once, then each call as the request it stands
// for, its body for a body and the headers the call frame carries, which
// has no Content-Length (the frame is its own length). An endpoint pinned
// to take no session gets XML over HTTP.
func TestRequestHeaderSetPerCodec(t *testing.T) {
	f := newBinFixture(t, nil)
	if err := f.srv.Promote(); err != nil { // epoch 1, so the epoch header is on the wire too
		t.Fatal(err)
	}
	type sent struct {
		method, path string
		header       http.Header
		body         []byte
		keys         []string // the header set, when not the method's
	}
	var mu sync.Mutex
	var seen []sent
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen = append(seen, sent{method: r.Method, path: r.URL.Path, header: r.Header.Clone(), body: body})
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		f.srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	lookup := &wire.LookupRequest{Software: metaToWire(binMeta(42)), Feeds: []string{"cert"}}
	batch := []core.SoftwareMeta{binMeta(43), binMeta(44)}
	xmlOf := func(v interface{}) []byte {
		var buf bytes.Buffer
		if err := wire.Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	common := []string{wire.HeaderEpoch, wire.HeaderPriority, wire.HeaderRequestID}
	post := append([]string{"Content-Length", "Content-Type"}, common...)
	call := append([]string{"Content-Type"}, common...)
	upgrade := []string{"Connection", "Content-Length", "Content-Type", wire.HeaderEpoch, wire.HeaderRequestID, "Upgrade"}

	ctx := WithRequestID(WithPriority(context.Background(), wire.PriorityBackground), "00112233aabbccdd")
	for _, mode := range []string{"xml over http", "xml", "binary"} {
		// One vote per user and program: each mode votes as its own user.
		session := f.signup(t, NewAPI(f.ts.URL, f.ts.Client()), strings.ReplaceAll(mode, " ", ""))
		vote := &wire.VoteRequest{Session: session, Software: metaToWire(binMeta(42)), Score: 7, Behaviors: core.BehaviorDisplaysAds.String(), Comment: "ok"}
		api := NewFailoverAPI([]string{ts.URL}, nil)
		contentType, token := wire.ContentType, wire.SessionUpgradeXML
		want := []sent{
			{method: http.MethodPost, path: wire.PathLookup, body: xmlOf(lookup)},
			{method: http.MethodPost, path: wire.PathVote, body: xmlOf(vote)},
			{method: http.MethodPost, path: wire.PathLookup, body: xmlOf(&wire.LookupRequest{Software: metaToWire(batch[0]), Feeds: lookup.Feeds})},
			{method: http.MethodPost, path: wire.PathLookup, body: xmlOf(&wire.LookupRequest{Software: metaToWire(batch[1]), Feeds: lookup.Feeds})},
		}
		switch mode {
		case "xml over http":
			api.pinNoSession(ts.URL)
		case "xml":
			for i := range want {
				want[i].keys = call
			}
			want = append([]sent{{method: http.MethodPost, path: wire.PathSession, keys: upgrade}}, want...)
		case "binary":
			api.EnableBinaryProtocol()
			contentType, token = wire.BinaryContentType, wire.SessionUpgrade
			want = []sent{
				{method: http.MethodPost, path: wire.PathSession, keys: upgrade},
				{method: http.MethodPost, path: wire.PathLookup, body: wire.EncodeBinaryLookup(lookup), keys: call},
				{method: http.MethodPost, path: wire.PathVote, body: wire.EncodeBinaryVote(vote), keys: call},
				{method: http.MethodPost, path: wire.PathLookupBatch, body: wire.EncodeBinaryLookupBatch(
					[]wire.SoftwareInfo{metaToWire(batch[0]), metaToWire(batch[1])}, lookup.Feeds), keys: call},
			}
		}
		for i := range want {
			want[i].header = http.Header{"Content-Type": {contentType}}
		}
		want = append(want, sent{method: http.MethodGet, path: wire.PathStats})

		if _, err := api.Stats(ctx); err != nil { // learn the epoch from the response
			t.Fatalf("warm-up stats: %v", err)
		}
		mu.Lock()
		seen = nil
		mu.Unlock()
		if _, err := api.Lookup(ctx, binMeta(42), lookup.Feeds...); err != nil {
			t.Fatalf("lookup (%s): %v", mode, err)
		}
		if _, err := api.Vote(ctx, session, binMeta(42), Rating{Score: 7, Behaviors: core.BehaviorDisplaysAds, Comment: "ok"}); err != nil {
			t.Fatalf("vote (%s): %v", mode, err)
		}
		if _, err := api.LookupBatch(ctx, batch, lookup.Feeds...); err != nil {
			t.Fatalf("batch (%s): %v", mode, err)
		}
		if _, err := api.Stats(ctx); err != nil {
			t.Fatalf("stats (%s): %v", mode, err)
		}

		mu.Lock()
		got := seen
		mu.Unlock()
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests on the wire, want %d", mode, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			row := fmt.Sprintf("%s request %d (%s %s)", mode, i, w.method, w.path)
			if g.method != w.method || g.path != w.path {
				t.Errorf("%s: got %s %s", row, g.method, g.path)
				continue
			}
			if !bytes.Equal(g.body, w.body) {
				t.Errorf("%s: body = %q, want %q", row, g.body, w.body)
			}
			wantKeys := common
			switch {
			case w.keys != nil:
				wantKeys = w.keys
			case w.method == http.MethodPost:
				wantKeys = post
			}
			var keys, wantCanon []string
			for k := range g.header {
				keys = append(keys, k)
			}
			for _, k := range wantKeys {
				wantCanon = append(wantCanon, http.CanonicalHeaderKey(k))
			}
			sort.Strings(keys)
			sort.Strings(wantCanon)
			if !reflect.DeepEqual(keys, wantCanon) {
				t.Errorf("%s: headers = %v, want %v", row, keys, wantCanon)
			}
			if ct := g.header.Get("Content-Type"); ct != w.header.Get("Content-Type") {
				t.Errorf("%s: Content-Type = %q", row, ct)
			}
			for _, h := range []string{"User-Agent", "Accept", "Accept-Encoding"} {
				if v, ok := g.header[h]; ok {
					t.Errorf("%s: %s %q on the wire", row, h, v)
				}
			}
			if w.path == wire.PathSession {
				if g.header.Get(wire.HeaderEpoch) != "1" || g.header.Get("Upgrade") != token || g.header.Get("Connection") != "Upgrade" {
					t.Errorf("%s: epoch/upgrade/connection = %q/%q/%q", row,
						g.header.Get(wire.HeaderEpoch), g.header.Get("Upgrade"), g.header.Get("Connection"))
				}
				continue
			}
			if g.header.Get(wire.HeaderEpoch) != "1" || g.header.Get(wire.HeaderRequestID) != "00112233aabbccdd" || g.header.Get(wire.HeaderPriority) != wire.PriorityBackground {
				t.Errorf("%s: epoch/request-id/priority = %q/%q/%q", row,
					g.header.Get(wire.HeaderEpoch), g.header.Get(wire.HeaderRequestID), g.header.Get(wire.HeaderPriority))
			}
		}
	}
}
