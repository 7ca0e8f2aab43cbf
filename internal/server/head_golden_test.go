package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/wire"
)

// TestResponseHeadGolden pins, over a real socket, the status line and
// every response header net/http writes for six answers: a binary hit, an
// XML hit, an XML vote acknowledgement, a binary 400, the time-out 503
// and a 429. Date is masked and Retry-After's jittered value is checked
// and masked; every other byte of each head is the golden's. The golden
// was captured before the request path stopped allocating what net/http
// does not force, and a change to how a request is read or answered must
// leave it as it is. Refresh with UPDATE_REPORT_GOLDEN=1 and review the
// diff like any other wire change.
func TestResponseHeadGolden(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 200 * time.Millisecond
		c.MaxInflight = 1
	})
	session := registerAndLogin(t, srv, "voter")
	if err := srv.Bootstrap([]BootstrapEntry{{Meta: testMeta(7), Score: 6.5, Votes: 120}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		return conn, bufio.NewReader(conn)
	}
	// send writes one request; a declared length past the body leaves the
	// handler waiting for the rest.
	send := func(conn net.Conn, path, id, contentType string, body []byte, declared int) {
		t.Helper()
		head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: golden\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s: %s\r\n\r\n",
			path, contentType, declared, wire.HeaderRequestID, id)
		if _, err := conn.Write(append([]byte(head), body...)); err != nil {
			t.Fatal(err)
		}
	}
	// head reads one response, returns its masked head and drops its body.
	head := func(br *bufio.Reader) string {
		t.Helper()
		var out strings.Builder
		length := 0
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("response head: %v (read %q)", err, out.String())
			}
			name, value, _ := strings.Cut(strings.TrimSuffix(line, "\r\n"), ": ")
			switch name {
			case "Date":
				line = "Date: <masked>\r\n"
			case "Retry-After":
				if secs, err := strconv.Atoi(value); err != nil || secs < 1 || secs > 2 {
					t.Fatalf("Retry-After = %q, want 1..2", value)
				}
				line = "Retry-After: <1..2>\r\n"
			case "Content-Length":
				length, _ = strconv.Atoi(value)
			}
			out.WriteString(line)
			if line == "\r\n" {
				break
			}
		}
		if _, err := io.CopyN(io.Discard, br, int64(length)); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	xmlOf := func(v interface{}) []byte {
		var buf bytes.Buffer
		if err := wire.Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	lookup := &wire.LookupRequest{Software: wireMeta(7)}
	frame := wire.EncodeBinaryLookup(lookup)
	cases := []struct {
		path, id, contentType string
		body                  []byte
	}{
		{wire.PathLookup, "binary-hit", wire.BinaryContentType, frame},
		{wire.PathLookup, "xml-hit", wire.ContentType, xmlOf(lookup)},
		{wire.PathVote, "vote-ack", wire.ContentType, xmlOf(&wire.VoteRequest{Session: session, Software: wireMeta(7), Score: 7, Behaviors: core.Behavior(0).String()})},
		{wire.PathLookup, "binary-400", wire.BinaryContentType, []byte("not a frame")},
	}

	conn, br := dial()
	defer conn.Close()
	send(conn, wire.PathLookup, "warm-up", wire.BinaryContentType, frame, len(frame)) // fills the cache
	head(br)
	var golden strings.Builder
	for _, tc := range cases {
		send(conn, tc.path, tc.id, tc.contentType, tc.body, len(tc.body))
		fmt.Fprintf(&golden, "== %s ==\n%s", tc.id, head(br))
	}
	// A lookup whose body never arrives holds the only inflight slot past
	// its deadline: the time-out answers it, and a lookup sent meanwhile
	// is shed.
	parked, parkedBr := dial()
	defer parked.Close()
	send(parked, wire.PathLookup, "time-out-503", wire.BinaryContentType, frame[:4], len(frame))
	fmt.Fprintf(&golden, "== time-out-503 ==\n%s", head(parkedBr))
	send(conn, wire.PathLookup, "shed-429", wire.BinaryContentType, frame, len(frame))
	fmt.Fprintf(&golden, "== shed-429 ==\n%s", head(br))
	checkGolden(t, "response_heads.golden.txt", []byte(golden.String()))
}
