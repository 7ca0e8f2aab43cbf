package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/wire"
)

// postBinary sends one binary frame and returns the response.
func (f *httpFixture) postBinary(path string, frame []byte) *http.Response {
	f.t.Helper()
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+path, bytes.NewReader(frame))
	if err != nil {
		f.t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.BinaryContentType)
	resp, err := f.client.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp
}

// readFrames drains a binary response body into its payloads.
func readFrames(t *testing.T, r io.Reader) [][]byte {
	t.Helper()
	br := bufio.NewReader(r)
	var out [][]byte
	for {
		payload, err := wire.ReadBinaryFrameInto(br, nil, wire.MaxBinaryFrame)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		out = append(out, payload)
	}
}

func TestBinaryLookupAndVote(t *testing.T) {
	f := newHTTPFixture(t)
	session := f.signupOverHTTP("alice")
	meta := wireMeta(1)

	// Binary lookup: the response is one report frame with the binary
	// content type and an exact Content-Length.
	resp := f.postBinary(wire.PathLookup, wire.EncodeBinaryLookup(&wire.LookupRequest{Software: meta}))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary lookup status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.BinaryContentType {
		t.Fatalf("binary lookup content type = %q", ct)
	}
	if resp.ContentLength <= 0 {
		t.Fatalf("binary lookup Content-Length = %d", resp.ContentLength)
	}
	frames := readFrames(t, resp.Body)
	if len(frames) != 1 || wire.BinaryFrameType(frames[0]) != wire.BinFrameReport {
		t.Fatalf("binary lookup frames = %d", len(frames))
	}
	rep, err := wire.DecodeBinaryReport(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Known {
		t.Fatal("first lookup must be unknown")
	}

	// Binary vote: ack frame with the comment ID.
	vresp := f.postBinary(wire.PathVote, wire.EncodeBinaryVote(&wire.VoteRequest{
		Session: session, Software: meta, Score: 8, Behaviors: "displays-ads", Comment: "fine",
	}))
	defer vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("binary vote status = %d", vresp.StatusCode)
	}
	vframes := readFrames(t, vresp.Body)
	if len(vframes) != 1 {
		t.Fatalf("binary vote frames = %d", len(vframes))
	}
	ack, err := wire.DecodeBinaryVoteAck(vframes[0])
	if err != nil {
		t.Fatal(err)
	}
	if ack.CommentID == 0 {
		t.Fatal("vote ack lost the comment ID")
	}
}

func TestBinaryLookupBatch(t *testing.T) {
	f := newHTTPFixture(t)
	infos := []wire.SoftwareInfo{wireMeta(1), wireMeta(2), wireMeta(3)}
	resp := f.postBinary(wire.PathLookupBatch, wire.EncodeBinaryLookupBatch(infos, nil))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	frames := readFrames(t, resp.Body)
	if len(frames) != len(infos) {
		t.Fatalf("batch frames = %d, want %d", len(frames), len(infos))
	}
	for i, payload := range frames {
		rep, err := wire.DecodeBinaryReport(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rep.ID != infos[i].ID {
			t.Fatalf("frame %d: ID %q, want %q (responses must keep request order)", i, rep.ID, infos[i].ID)
		}
	}

	// The batch endpoint is binary-only: an XML post is refused with the
	// negotiation status, not a parse error, in an XML error document
	// that says what the endpoint takes.
	var buf bytes.Buffer
	if err := wire.Encode(&buf, &wire.LookupRequest{Software: infos[0]}); err != nil {
		t.Fatal(err)
	}
	xresp, err := f.client.Post(f.ts.URL+wire.PathLookupBatch, wire.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer xresp.Body.Close()
	var werr wire.ErrorResponse
	derr := wire.Decode(xresp.Body, &werr)
	const wantMsg = "this endpoint takes binary frames only"
	if xresp.StatusCode != http.StatusUnsupportedMediaType || derr != nil ||
		werr.Code != wire.CodeUnsupportedMedia || werr.Message != wantMsg {
		t.Fatalf("XML batch: status %d, %q %q (%v), want 415 %q %q",
			xresp.StatusCode, werr.Code, werr.Message, derr, wire.CodeUnsupportedMedia, wantMsg)
	}
}

// TestMalformedFieldIsBadRequest: an identity or a behaviour list that
// does not parse is answered 400 bad-request in the request's codec — on
// a lookup, on a vote and as a batch entry — never 500, which a client
// reads as a dead endpoint to sweep away from and count against the
// breaker.
func TestMalformedFieldIsBadRequest(t *testing.T) {
	f := newHTTPFixture(t)
	session := f.signupOverHTTP("alice")
	badID := wire.SoftwareInfo{ID: "zz", FileName: "x.exe"}
	lookup := &wire.LookupRequest{Software: badID}
	voteID := &wire.VoteRequest{Session: session, Software: badID, Score: 5}
	voteBehavior := &wire.VoteRequest{Session: session, Software: wireMeta(1), Score: 5, Behaviors: "levitates"}

	for _, tc := range []struct {
		name, path string
		req        interface{}
		frame      []byte
	}{
		{"lookup id", wire.PathLookup, lookup, wire.EncodeBinaryLookup(lookup)},
		{"vote id", wire.PathVote, voteID, wire.EncodeBinaryVote(voteID)},
		{"vote behaviour", wire.PathVote, voteBehavior, wire.EncodeBinaryVote(voteBehavior)},
	} {
		var werr *wire.ErrorResponse
		if err := f.post(tc.path, tc.req, nil); !errorAs(err, &werr) || werr.Code != wire.CodeBadRequest {
			t.Errorf("%s, XML: %v, want bad-request", tc.name, err)
		}
		resp := f.postBinary(tc.path, tc.frame)
		frames := readFrames(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || len(frames) != 1 {
			t.Errorf("%s, binary: status %d, %d frames, want 400 and one error frame", tc.name, resp.StatusCode, len(frames))
			continue
		}
		if berr, err := wire.DecodeBinaryError(frames[0]); err != nil || berr.Code != wire.CodeBadRequest {
			t.Errorf("%s, binary: %v / %v, want bad-request", tc.name, berr, err)
		}
	}

	// In a batch the bad entry fails alone, with the same code.
	resp := f.postBinary(wire.PathLookupBatch, wire.EncodeBinaryLookupBatch([]wire.SoftwareInfo{wireMeta(1), badID}, nil))
	frames := readFrames(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(frames) != 2 {
		t.Fatalf("batch: status %d, %d frames", resp.StatusCode, len(frames))
	}
	if _, err := wire.DecodeBinaryReport(frames[0]); err != nil {
		t.Errorf("batch: good entry: %v", err)
	}
	if berr, err := wire.DecodeBinaryError(frames[1]); err != nil || berr.Code != wire.CodeBadRequest {
		t.Errorf("batch: bad entry: %v / %v, want bad-request", berr, err)
	}
}

func TestHealthzAdvertisesBinary(t *testing.T) {
	f := newHTTPFixture(t)
	var health wire.HealthzResponse
	if err := f.get(wire.PathHealthz, &health); err != nil {
		t.Fatal(err)
	}
	if health.Protocols != "binary,xml" {
		t.Fatalf("healthz protocols = %q, want binary,xml", health.Protocols)
	}
}

// TestMalformedBinaryFrameKeepsConnection sends a corrupted frame and
// then a valid one over the same client: the server must answer the bad
// frame with a binary wire error (400) and keep the connection open —
// the follow-up request may not dial again.
func TestMalformedBinaryFrameKeepsConnection(t *testing.T) {
	f := newHTTPFixture(t)

	var mu sync.Mutex
	dials := 0
	transport := f.ts.Client().Transport.(*http.Transport).Clone()
	transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		dials++
		mu.Unlock()
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}
	client := &http.Client{Transport: transport}

	frame := wire.EncodeBinaryLookup(&wire.LookupRequest{Software: wireMeta(1)})
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF // corrupt the payload so the CRC fails

	req, _ := http.NewRequest(http.MethodPost, f.ts.URL+wire.PathLookup, bytes.NewReader(bad))
	req.Header.Set("Content-Type", wire.BinaryContentType)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.BinaryContentType {
		t.Fatalf("malformed frame error content type = %q", ct)
	}
	payload, rest, err := wire.SplitBinaryFrame(mustReadAll(t, resp.Body))
	resp.Body.Close()
	if err != nil || len(rest) != 0 {
		t.Fatalf("error frame: %v (%d rest)", err, len(rest))
	}
	werr, err := wire.DecodeBinaryError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if werr.Code != wire.CodeBadRequest {
		t.Fatalf("error code = %q", werr.Code)
	}

	// A valid request on the same client must reuse the connection.
	req2, _ := http.NewRequest(http.MethodPost, f.ts.URL+wire.PathLookup, bytes.NewReader(frame))
	req2.Header.Set("Content-Type", wire.BinaryContentType)
	resp2, err := client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d", resp2.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if dials != 1 {
		t.Fatalf("dials = %d, want 1 (malformed frame must not burn the connection)", dials)
	}
}

func mustReadAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestXMLResponsesGolden pins the XML compat arm byte-for-byte: the
// buffered, Content-Length-stamped encode path must produce exactly the
// bytes the pre-binary streaming path produced. Refresh with
// UPDATE_GOLDEN=1 go test ./internal/server -run Golden
// and review the diff like any other wire change.
func TestXMLResponsesGolden(t *testing.T) {
	f := newHTTPFixture(t)

	// A deterministic report: seeded via bootstrap, no clocks involved.
	meta := testMeta(7)
	if err := f.srv.Bootstrap([]BootstrapEntry{{
		Meta: meta, Score: 6.5, Votes: 120, Behaviors: core.BehaviorDisplaysAds,
	}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		golden string
		fetch  func() *http.Response
	}{
		{
			name:   "lookup",
			golden: "lookup_response.golden.xml",
			fetch: func() *http.Response {
				var buf bytes.Buffer
				if err := wire.Encode(&buf, &wire.LookupRequest{Software: wireMeta(7)}); err != nil {
					t.Fatal(err)
				}
				resp, err := f.client.Post(f.ts.URL+wire.PathLookup, wire.ContentType, &buf)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
		},
		{
			name:   "error",
			golden: "error_response.golden.xml",
			fetch: func() *http.Response {
				resp, err := f.client.Post(f.ts.URL+wire.PathLookup, wire.ContentType,
					bytes.NewReader([]byte("<not-xml")))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.fetch()
			defer resp.Body.Close()
			body := mustReadAll(t, resp.Body)
			if resp.ContentLength != int64(len(body)) {
				t.Fatalf("Content-Length %d != body %d", resp.ContentLength, len(body))
			}
			path := filepath.Join("testdata", tc.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("XML response changed:\n got: %q\nwant: %q", body, want)
			}
		})
	}
}
