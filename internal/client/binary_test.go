package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repo"
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

// binFixture is a server (optionally XML-only) with request recording.
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
	if eps := api.XMLOnlyEndpoints(); len(eps) != 0 {
		t.Fatalf("endpoint wrongly pinned XML-only: %v", eps)
	}
}

// TestBinaryClientFallsBackToXML pins the negotiation: against an
// XML-only server the first binary attempt earns a 415, the client
// re-sends as XML within the same call, and later calls skip the
// binary attempt entirely.
func TestBinaryClientFallsBackToXML(t *testing.T) {
	f := newBinFixture(t, func(c *server.Config) { c.DisableBinary = true })
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()

	if _, err := api.Lookup(context.Background(), binMeta(2)); err != nil {
		t.Fatalf("lookup against XML-only server: %v", err)
	}
	if eps := api.XMLOnlyEndpoints(); len(eps) != 1 || eps[0] != f.ts.URL {
		t.Fatalf("endpoint not pinned XML-only: %v", eps)
	}
	if n := f.rec.count(wire.PathLookup, wire.BinaryContentType); n != 1 {
		t.Fatalf("binary attempts = %d, want exactly 1", n)
	}
	if n := f.rec.count(wire.PathLookup, wire.ContentType); n != 1 {
		t.Fatalf("XML lookups = %d, want 1", n)
	}

	// The pin sticks: the second lookup goes straight to XML.
	if _, err := api.Lookup(context.Background(), binMeta(3)); err != nil {
		t.Fatal(err)
	}
	if n := f.rec.count(wire.PathLookup, wire.BinaryContentType); n != 1 {
		t.Fatalf("binary attempts after pin = %d, want still 1", n)
	}
}

// TestMixedVersionPair runs a binary primary behind an XML-only replica
// (a mid-rollout topology): reads land on the replica in XML, the vote
// is redirected by the replica's XML 421 and lands on the primary in
// binary. Both protocols interoperate inside one logical call.
func TestMixedVersionPair(t *testing.T) {
	primary := newBinFixture(t, nil)
	replica := newBinFixture(t, func(c *server.Config) {
		c.DisableBinary = true
		c.Replica = true
		c.PrimaryURL = primary.ts.URL
	})

	// Replica listed first: reads prefer it, writes must hop.
	api := NewFailoverAPI([]string{replica.ts.URL, primary.ts.URL}, nil).EnableBinaryProtocol()
	session := primary.signup(t, NewAPI(primary.ts.URL, nil).EnableBinaryProtocol(), "alice")

	if _, err := api.Lookup(context.Background(), binMeta(4)); err != nil {
		t.Fatalf("lookup via XML-only replica: %v", err)
	}
	if n := replica.rec.count(wire.PathLookup, wire.ContentType); n != 1 {
		t.Fatalf("replica XML lookups = %d, want 1", n)
	}

	if _, err := api.Vote(context.Background(), session, binMeta(4), Rating{Score: 6}); err != nil {
		t.Fatalf("vote across mixed-version pair: %v", err)
	}
	if n := primary.rec.count(wire.PathVote, wire.BinaryContentType); n != 1 {
		t.Fatalf("primary binary votes = %d, want 1", n)
	}
}

// TestLookupBatch exercises the batched call against both server
// generations: one frame per chunk on a binary server, sequential
// singles on an XML-only one — with index-aligned results either way.
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
		f := newBinFixture(t, func(c *server.Config) { c.DisableBinary = true })
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

// TestBatcherCoalesces fires concurrent lookups through a batching
// window and requires them to share one wire round trip.
func TestBatcherCoalesces(t *testing.T) {
	f := newBinFixture(t, nil)
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol().SetBatching(150*time.Millisecond, 32)

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = api.Lookup(context.Background(), binMeta(byte(20+i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if got := f.rec.count(wire.PathLookupBatch, wire.BinaryContentType); got != 1 {
		t.Fatalf("batch round trips = %d, want 1 (lookups did not coalesce)", got)
	}
	if got := f.rec.count(wire.PathLookup, "*"); got != 0 {
		t.Fatalf("single lookups = %d, want 0", got)
	}

	// A full group flushes early without waiting out the window.
	api.SetBatching(time.Hour, 2)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := api.Lookup(context.Background(), binMeta(byte(40+i)))
			done <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("full batch never flushed early")
		}
	}
}

// TestRequestHeaderSetPerCodec pins the exact header set each codec
// puts on the wire — every header is bytes on every request. Both
// codecs share one sender, and the only difference it may introduce is
// the binary codec's Accept: an XML request (the paper's protocol)
// carries none, and a GET carries no Content-Type either.
func TestRequestHeaderSetPerCodec(t *testing.T) {
	f := newBinFixture(t, nil)
	if err := f.srv.Promote(); err != nil { // epoch 1, so the epoch header is on the wire too
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]http.Header{} // method + content type -> headers
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.Header.Get("Content-Type")] = r.Header.Clone()
		mu.Unlock()
		f.srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx := WithRequestID(WithPriority(context.Background(), wire.PriorityBackground), "00112233aabbccdd")
	for _, binary := range []bool{false, true} {
		api := NewFailoverAPI([]string{ts.URL}, nil)
		if binary {
			api.EnableBinaryProtocol()
		}
		if _, err := api.Stats(ctx); err != nil { // learn the epoch from the response
			t.Fatalf("warm-up stats: %v", err)
		}
		if _, err := api.Lookup(ctx, binMeta(42)); err != nil {
			t.Fatalf("lookup (binary=%v): %v", binary, err)
		}
		if _, err := api.Stats(ctx); err != nil {
			t.Fatalf("stats (binary=%v): %v", binary, err)
		}
	}

	common := []string{"Accept-Encoding", "User-Agent", wire.HeaderEpoch, wire.HeaderPriority, wire.HeaderRequestID}
	post := append([]string{"Content-Length", "Content-Type"}, common...)
	for _, tc := range []struct {
		req  string
		want []string
	}{
		{"GET ", common},
		{"POST " + wire.ContentType, post},
		{"POST " + wire.BinaryContentType, append([]string{"Accept"}, post...)},
	} {
		mu.Lock()
		got := seen[tc.req]
		mu.Unlock()
		var keys []string
		for k := range got {
			keys = append(keys, k)
		}
		want := make([]string, len(tc.want))
		for i, k := range tc.want {
			want[i] = http.CanonicalHeaderKey(k)
		}
		sort.Strings(keys)
		sort.Strings(want)
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%q request headers = %v, want %v", tc.req, keys, want)
		}
		if a := got.Get("Accept"); a != "" && a != wire.BinaryContentType {
			t.Errorf("%q: Accept = %q", tc.req, a)
		}
		if got.Get(wire.HeaderEpoch) != "1" || got.Get(wire.HeaderRequestID) != "00112233aabbccdd" || got.Get(wire.HeaderPriority) != wire.PriorityBackground {
			t.Errorf("%q: epoch/request-id/priority = %q/%q/%q", tc.req,
				got.Get(wire.HeaderEpoch), got.Get(wire.HeaderRequestID), got.Get(wire.HeaderPriority))
		}
	}
}
