package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/wire"
)

// TestLoopbackAllocBudget pins what one lookup, or one vote, costs the
// serving process in heap allocations over a real socket, net/http's
// request and response heads included, which the handler-chain budgets in
// internal/server (built on httptest.ResponseRecorder) do not see. The
// server runs with the daemon's settings behind an http.Server with
// reputationd's timeouts. The exact bytes this package's API sends for one
// call are recorded at the dial: on a session in either codec, or in XML
// over HTTP from an API pinned to take no session (the fallback, and what
// older clients send). They are replayed on one raw connection
// (keep-alive, or a session opened with the recorded upgrade) and read
// back into a fixed buffer, so the test's own side allocates nothing and
// every allocation counted is the server's. A binary lookup over HTTP,
// which this client no longer sends but older ones do, is the XML
// lookup's request with the binary Content-Type and the frame for a body,
// as the client sent it before sessions. A budget is the measured value +
// 2, a session row's the measured value, since a call pays none of
// net/http's heads; raise one only with the reason in the commit.
func TestLoopbackAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	store := repo.OpenMemory()
	defer store.Close()
	srv, err := server.New(server.Config{
		Store:            store,
		EmailPepper:      "pepper",
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		AdmissionControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap([]server.BootstrapEntry{{Meta: binMeta(42), Score: 7, Votes: 12}}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	rows := []struct {
		name                                     string
		binary, session, cold, vote, full, batch bool // cold: each request names a program not looked up before; vote: each on a program not voted on before; full: on a report cache kept full; batch: one call of batchHits lookups
		budget                                   float64
	}{
		// Measured 25 (DESIGN.md, What one request costs): net/http's own
		// 16, a value string for each of the 4 request header lines and a
		// canonical key for the request id's name, and the 4 of the
		// response head any response header forces; the Content-Length is
		// the cache entry's. Parent commit: 26, flush rendered the
		// Content-Length; before that 31, the three header lines nothing
		// reads (User-Agent, Accept, Accept-Encoding), the armed request
		// and net/http's discard of a body the handler had read whole on
		// top.
		{"binary lookup", true, false, false, false, false, false, 27},
		// Measured 25: the same. Parent commit: 27, a body of 100 bytes or
		// more, whose Content-Length is a string as well; before that 31,
		// as above less the Accept, which the XML codec never sent.
		{"xml lookup", false, false, false, false, false, false, 27},
		// Measured 28: a hit's 25 and the miss's own 3, the fill's text
		// and the cache's entry and the buffer it keeps the key and the
		// report in (the report is under 100 bytes: its Content-Length
		// renders without an allocation).
		{"binary lookup, cold", true, false, true, false, false, false, 30},
		// Measured 40: the paper's write end to end, a score-only vote as
		// the client sends it after the execution prompt, on this in-memory
		// store's small tree: net/http's heads as for a lookup, the handler
		// chain's vote (internal/server's TestVoteAllocBudget) and the moved
		// seq's fencing pair. Parent commit: 50, the request decoded into a
		// document and its strings, the ack in a buffer of its own and a
		// Content-Length string.
		{"xml vote", false, false, false, true, false, false, 42},
		// A call on a session, the connection's heads paid once.
		// Measured 0: the call's request id stays its frame's bytes, the
		// answer carries the fencing pair as numbers and no Content-Length,
		// so the handler chain renders no header value. Every allocation of
		// the HTTP row was net/http's heads. Parent commit: 1, the request
		// id's string, read by the chain as a header value.
		{"session lookup", true, true, false, false, false, false, 0},
		// Measured 0: batchHits hits in one call, answered past 1 KiB.
		// Parent commit: 3, the request id's string and the answer's
		// Content-Length, a string in a slice of its own. New in this
		// commit.
		{"session batch of 64 hits", true, true, false, false, false, true, 0},
		// Measured 3: the miss's own 3. Parent commit: 4, with the request
		// id's string.
		{"session lookup, cold", true, true, true, false, false, false, 3},
		// Measured 0: the paper's lookup on an XML session, its document
		// read in place as over HTTP. Parent commit: 1, the request id's
		// string, as in the binary row.
		{"xml session lookup", false, true, false, false, false, false, 0},
		// Measured 14: the paper's vote on an XML session: the "xml vote"
		// row's handler chain; its other 26 are net/http's heads (24, the
		// request id's value among them) and the moved seq's fencing pair
		// (2), which only HTTP's headers render. Parent commit: 17, the
		// fencing pair and the request id's string.
		{"xml session vote", false, true, false, true, false, false, 14},
		// Measured 1: the session cold row on a cache kept full, the
		// daemon's steady state on the long tail: the fill's text. The
		// miss's flight is the entry the previous store evicted, its
		// buffer kept. Parent commit: 2, with the request id's string.
		// Last, since the long tail it puts on record deepens the tree
		// under the votes.
		{"session lookup, long tail", true, true, true, false, true, false, 1},
	}
	const runs = 200
	programs := make([]server.BootstrapEntry, runs+2) // binMeta(42) but for the identity
	for i := range programs {
		programs[i] = server.BootstrapEntry{Meta: binMeta(42), Score: 7, Votes: 12}
		programs[i].Meta.ID = core.ComputeSoftwareID(fmt.Appendf(nil, "cold-%d", i))
	}
	if err := srv.Bootstrap(programs); err != nil {
		t.Fatal(err)
	}
	// tail is the long tail: the first DefaultEntries fill the report
	// cache, and every later one evicts one of them.
	tail := make([]server.BootstrapEntry, repcache.DefaultEntries+runs+2)
	for i := range tail {
		tail[i] = server.BootstrapEntry{Meta: binMeta(42), Score: 7, Votes: 12}
		tail[i].Meta.ID = core.ComputeSoftwareID(fmt.Appendf(nil, "tail-%d", i))
	}
	// Every vote moves the committed seq, which each answer carries: from
	// 1000 on, each has as many digits, so every answer is as long.
	for store.Seq() < 1000 {
		if err := store.SetVendorScore(core.VendorScore{Vendor: "padding", Score: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range rows {
		// Each vote row votes as a user of its own, on programs it has not
		// voted on; the names are as long, so the keys are.
		voter := "voter"
		if tc.session {
			voter = "rater"
		}
		var session string
		if tc.vote {
			session = loginVoter(t, srv, voter)
		}
		req := captureRequest(t, base, tc.binary && tc.session, tc.session, func(api *API) error {
			switch {
			case tc.vote:
				_, err := api.Vote(context.Background(), session, binMeta(42), Rating{Score: 7})
				return err
			case tc.batch:
				metas := make([]core.SoftwareMeta, batchHits)
				for i := range metas {
					metas[i] = binMeta(42)
				}
				_, err := api.LookupBatch(context.Background(), metas)
				return err
			}
			_, err := api.Lookup(context.Background(), binMeta(42))
			return err
		})
		var upgrade []byte
		if tc.session {
			upgrade, req = splitUpgrade(t, req)
		} else if tc.binary {
			req = binaryOverHTTP(t, req, wire.EncodeBinaryLookup(&wire.LookupRequest{Software: metaToWire(binMeta(42))}))
		}
		// The client's bytes naming another program (cold, vote) and, on a
		// session, carrying another request id, since the client mints one
		// a call: the same length, so the same head.
		named := programs
		if tc.full {
			if err := srv.Bootstrap(tail); err != nil {
				t.Fatal(err)
			}
			named = tail
		}
		reqs := make([][]byte, len(named))
		for i := range named {
			meta := binMeta(42)
			if tc.cold || tc.vote {
				meta = named[i].Meta
			}
			reqs[i] = nthRequest(t, req, tc.binary, tc.session, meta, i)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(time.Minute))
		replay := replayOnce
		if tc.session {
			openSession(t, conn, upgrade)
			replay = replayCall
		}
		if tc.full {
			for _, fill := range reqs[:repcache.DefaultEntries] {
				replay(t, conn, fill)
			}
			reqs = reqs[repcache.DefaultEntries:]
		}
		// The first answer fills the report cache (cold: its program's)
		// and gives the length every later one has: the same head (Date is
		// fixed-width) and a body as long.
		n := replay(t, conn, reqs[0])
		buf := make([]byte, n)
		next, misses := 0, srv.ReportCacheStats().Misses
		got := testing.AllocsPerRun(runs, func() {
			next = min(next+1, len(reqs)-1)
			if _, err := conn.Write(reqs[next]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Fatal(err)
			}
		})
		conn.Close()
		if tc.session {
			checkAnswer(t, tc.name, buf)
		} else if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 OK\r\n")) {
			t.Fatalf("%s: last answer %q", tc.name, buf)
		}
		if _, ok, err := store.GetRating(programs[next].Meta.ID, voter); tc.vote && (err != nil || !ok) {
			t.Fatalf("%s: the last vote was not stored: %v", tc.name, err)
		}
		if missed := srv.ReportCacheStats().Misses - misses; tc.cold != (missed == runs+1) {
			t.Fatalf("%s: %d of %d requests missed the report cache", tc.name, missed, runs+1)
		}
		t.Logf("%s: %.2f allocs/request (budget %.0f), %d request bytes", tc.name, got, tc.budget, len(req))
		if got > tc.budget {
			t.Errorf("%s: %.2f allocs/request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// splitUpgrade cuts what a client sent for its first call on a session
// into the session's upgrade request and the call frame that followed it.
func splitUpgrade(t *testing.T, sent []byte) (upgrade, call []byte) {
	t.Helper()
	i := bytes.Index(sent, []byte("\r\n\r\n"))
	if i < 0 || !bytes.HasPrefix(sent, []byte("POST "+wire.PathSession+" ")) {
		t.Fatalf("the client did not open a session: %q", sent)
	}
	return sent[:i+4], sent[i+4:]
}

// binaryOverHTTP is the XML lookup request xmlReq with the binary
// Content-Type and frame for a body: what a binary client sent over HTTP.
func binaryOverHTTP(t *testing.T, xmlReq, frame []byte) []byte {
	t.Helper()
	head, _, ok := bytes.Cut(xmlReq, []byte("\r\n\r\n"))
	if !ok {
		t.Fatalf("no head in %q", xmlReq)
	}
	lines := strings.Split(string(head), "\r\n")
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "Content-Type: "):
			lines[i] = "Content-Type: " + wire.BinaryContentType
		case strings.HasPrefix(line, "Content-Length: "):
			lines[i] = "Content-Length: " + strconv.Itoa(len(frame))
		}
	}
	return append([]byte(strings.Join(lines, "\r\n")+"\r\n\r\n"), frame...)
}

// batchHits is the batch row's lookups in one call, as many as a frame
// of the benchmark's batch_prefetch workload carries.
const batchHits = 64

// nthRequest is req, a lookup or a vote of binMeta(42) as an HTTP request
// or a session's call frame, naming meta instead; a call carries the n-th
// request id too. A binary request is a lookup or a batch, which names
// binMeta(42) still.
func nthRequest(t *testing.T, req []byte, binary, session bool, meta core.SoftwareMeta, n int) []byte {
	t.Helper()
	frame := func(m core.SoftwareMeta) []byte {
		return wire.EncodeBinaryLookup(&wire.LookupRequest{Software: metaToWire(m)})
	}
	rename := func(b []byte) []byte {
		return bytes.Replace(b, []byte(binMeta(42).ID.String()), []byte(meta.ID.String()), 1)
	}
	if !session {
		if !binary {
			return rename(req)
		}
		head, ok := bytes.CutSuffix(req, frame(binMeta(42)))
		if !ok {
			t.Fatalf("the request does not end in the lookup's frame")
		}
		return append(bytes.Clone(head), frame(meta)...)
	}
	payload, _, err := wire.SplitBinaryFrame(req)
	var call wire.Call
	if err == nil {
		err = call.Read(payload)
	}
	if err != nil || binary && call.Op == wire.OpLookup && !bytes.Equal(call.Request, frame(binMeta(42))) {
		t.Fatalf("the captured call does not carry the lookup's frame: %v", err)
	}
	switch {
	case call.Op == wire.OpLookupBatch: // of binMeta(42) alone
	case binary:
		call.Request = frame(meta)
	default:
		call.Request = rename(call.Request)
	}
	call.RequestID = fmt.Appendf(nil, "%016x", n)
	return wire.AppendCall(nil, &call)
}

// openSession sends the recorded upgrade on conn and reads the 101.
func openSession(t *testing.T, conn net.Conn, upgrade []byte) {
	t.Helper()
	if _, err := conn.Write(upgrade); err != nil {
		t.Fatal(err)
	}
	var head []byte
	b := make([]byte, 1)
	for !bytes.HasSuffix(head, []byte("\r\n\r\n")) {
		if _, err := conn.Read(b); err != nil {
			t.Fatal(err)
		}
		head = append(head, b[0])
	}
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 101 ")) {
		t.Fatalf("upgrade answered %q", head)
	}
}

// replayCall sends one call frame on a session and reads its answer
// frame whole, returning its length in bytes.
func replayCall(t *testing.T, conn net.Conn, call []byte) int {
	t.Helper()
	if _, err := conn.Write(call); err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	ans := make([]byte, 8+int(binary.BigEndian.Uint32(hdr[:4])))
	copy(ans, hdr[:])
	if _, err := io.ReadFull(conn, ans[8:]); err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, "first call", ans)
	return len(ans)
}

// checkAnswer fails unless frame is one answer frame with a 200.
func checkAnswer(t *testing.T, name string, frame []byte) {
	t.Helper()
	payload, rest, err := wire.SplitBinaryFrame(frame)
	var ans wire.Answer
	if err == nil {
		err = ans.Read(payload)
	}
	if err != nil || len(rest) != 0 || ans.Status != http.StatusOK {
		t.Fatalf("%s: answer %+v, %v", name, ans, err)
	}
}

// loginVoter registers, activates and logs in one user on srv.
func loginVoter(t *testing.T, srv *server.Server, username string) string {
	t.Helper()
	email := username + "@example.com"
	if err := srv.Register(server.RegisterParams{Username: username, Password: "pw", Email: email}); err != nil {
		t.Fatal(err)
	}
	mail, ok := srv.Mailer().(*server.MemoryMailer).Read(email)
	if !ok {
		t.Fatal("no activation mail")
	}
	if _, err := srv.Activate(mail.Token); err != nil {
		t.Fatal(err)
	}
	session, err := srv.Login(username, "pw")
	if err != nil {
		t.Fatal(err)
	}
	return session
}

// captureRequest returns the bytes the API puts on the wire for one call:
// on a session in the binary codec or in XML, or in XML over HTTP.
func captureRequest(t *testing.T, base string, binary, session bool, call func(*API) error) []byte {
	t.Helper()
	var mu sync.Mutex
	var sent bytes.Buffer
	tr := NewTransport()
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return &recordingConn{Conn: c, mu: &mu, sent: &sent}, err
	}
	defer tr.CloseIdleConnections()
	api := NewAPI(base, &http.Client{Transport: tr})
	if binary {
		api.EnableBinaryProtocol()
	}
	if !session {
		api.pinNoSession(base)
	}
	if err := call(api); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]byte(nil), sent.Bytes()...)
}

// recordingConn keeps a copy of everything written to it.
type recordingConn struct {
	net.Conn
	mu   *sync.Mutex
	sent *bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// replayOnce sends req and reads one 200 answer whole, returning its
// length in bytes.
func replayOnce(t *testing.T, conn net.Conn, req []byte) int {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	n, length := 0, -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && !strings.HasPrefix(line, "HTTP/1.1 200 ") {
			t.Fatalf("answer %q", line)
		}
		n += len(line)
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			length, _ = strconv.Atoi(strings.TrimSpace(v))
		}
		if line == "\r\n" {
			break
		}
	}
	if _, err := io.CopyN(io.Discard, br, int64(length)); err != nil || br.Buffered() != 0 {
		t.Fatalf("body of %d bytes: %v, %d bytes more", length, err, br.Buffered())
	}
	return n + length
}
