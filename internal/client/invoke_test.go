package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"softreputation/internal/resilience"
	"softreputation/internal/server"
	"softreputation/internal/wire"
)

var actionNames = map[action]string{
	actFinal: "final", actRetryHere: "retry here", actSweepOn: "sweep on",
	actRedirect: "follow redirect", actResendXML: "re-send as XML and pin",
}

// TestDispositionTable enumerates every answer the server can give —
// the five rows of its refusal table, each arm of its domain-error
// mapping, the 415, the deadline's 503, the admission shed — and the
// answers of a pre-binary server and of no server at all, against what
// the client does with each. The table is DESIGN.md's "Request path
// (client)"; a server row added without a client reading belongs here.
func TestDispositionTable(t *testing.T) {
	type exchange struct{ sentBinary, answeredBinary bool }
	var (
		xml      = exchange{false, false}
		frames   = exchange{true, true}
		refused  = exchange{true, false} // a frame answered with a document
		anyCodec = []exchange{xml, frames, refused}
	)
	rows := []struct {
		name   string
		status int
		code   string
		in     []exchange
		want   action
	}{
		// The refusal table (server/harden.go), in its order.
		{"draining", 503, wire.CodeUnavailable, anyCodec, actSweepOn},
		{"replica", 421, wire.CodeRedirect, anyCodec, actRedirect},
		{"fenced", 503, wire.CodeFenced, anyCodec, actSweepOn},
		{"storage corrupt", 503, wire.CodeUnavailable, anyCodec, actSweepOn},
		{"storage failed", 503, wire.CodeUnavailable, anyCodec, actSweepOn},
		// The gate's other answers.
		{"deadline", 503, wire.CodeUnavailable, anyCodec, actSweepOn},
		{"admission shed", 429, wire.CodeOverloaded, anyCodec, actRetryHere},
		// errorCodeStatus (server/handlers.go), arm by arm, in the
		// request's codec.
		{"user exists", 409, wire.CodeUserExists, []exchange{xml, frames}, actFinal},
		{"email taken", 409, wire.CodeEmailTaken, []exchange{xml, frames}, actFinal},
		{"captcha", 403, wire.CodeCaptchaFailed, []exchange{xml, frames}, actFinal},
		{"puzzle", 403, wire.CodePuzzleFailed, []exchange{xml, frames}, actFinal},
		{"bad credentials", 401, wire.CodeBadCreds, []exchange{xml, frames}, actFinal},
		{"not activated", 403, wire.CodeNotActivated, []exchange{xml, frames}, actFinal},
		{"bad session", 401, wire.CodeBadSession, []exchange{xml, frames}, actFinal},
		{"already rated", 409, wire.CodeAlreadyRated, []exchange{xml, frames}, actFinal},
		{"already remarked", 409, wire.CodeAlreadyMarked, []exchange{xml, frames}, actFinal},
		{"self remark", 409, wire.CodeSelfRemark, []exchange{xml, frames}, actFinal},
		{"not found", 404, wire.CodeNotFound, []exchange{xml, frames}, actFinal},
		{"vote budget", 429, wire.CodeRateLimited, anyCodec, actRetryHere},
		{"bad request", 400, wire.CodeBadRequest, []exchange{xml, frames}, actFinal},
		{"method not allowed", 405, wire.CodeBadRequest, []exchange{xml, frames}, actFinal},
		{"internal", 500, wire.CodeInternal, anyCodec, actSweepOn},
		// A server that takes no frames: -xml-only's 415, and a pre-binary
		// server's XML decoder (400) or missing route (404, 405).
		{"xml-only", 415, wire.CodeUnsupportedMedia, []exchange{refused}, actResendXML},
		{"xml-only, XML batch", 415, wire.CodeUnsupportedMedia, []exchange{xml}, actFinal},
		{"pre-binary 400", 400, wire.CodeBadRequest, []exchange{refused}, actResendXML},
		{"pre-binary 404", 404, "", []exchange{refused}, actResendXML},
		{"pre-binary 405", 405, "", []exchange{refused}, actResendXML},
	}
	check := func(name string, err error, sentBinary bool, want action) {
		t.Helper()
		v := disposition(err, sentBinary)
		if v.act != want {
			t.Errorf("%s (sent binary %v): %s, want %s", name, sentBinary, actionNames[v.act], actionNames[want])
		}
		// The executor and the breaker read the same answer: what the sweep
		// leaves to them is retried, and only a shed spares the breaker.
		if got, want := resilience.Retryable(err), v.act == actRetryHere || v.act == actSweepOn; got != want {
			t.Errorf("%s: %s but Retryable = %v", name, actionNames[v.act], got)
		}
		if got, want := resilience.IsShed(err), v.act == actRetryHere; got != want {
			t.Errorf("%s: %s but IsShed = %v", name, actionNames[v.act], got)
		}
	}
	for _, row := range rows {
		for _, ex := range row.in {
			var doc error = &wire.ErrorResponse{Code: row.code, Primary: "http://primary"}
			if row.code == "" {
				doc = errors.New("404 page not found")
			}
			err := &resilience.HTTPStatusError{Status: row.status, Binary: ex.answeredBinary, Err: doc}
			check(row.name, err, ex.sentBinary, row.want)
			if v := disposition(err, ex.sentBinary); v.act == actRedirect && v.primary != "http://primary" {
				t.Errorf("%s: redirect names %q", row.name, v.primary)
			}
		}
	}
	for _, sentBinary := range []bool{false, true} {
		check("success", nil, sentBinary, actFinal)
		check("transport error", fmt.Errorf("client: %s: %w", wire.PathLookup, errors.New("connection refused")), sentBinary, actSweepOn)
	}
}

// TestDispositionOfLiveAnswers sends real requests, in both codecs, to
// real servers in the states a client meets, and reads the answers: the
// table above is about documents this server actually writes.
func TestDispositionOfLiveAnswers(t *testing.T) {
	lookup := &wire.LookupRequest{Software: metaToWire(binMeta(1))}
	vote := &wire.VoteRequest{Session: "nope", Software: metaToWire(binMeta(1)), Score: 5}
	badID := &wire.LookupRequest{Software: wire.SoftwareInfo{ID: "not-hex"}}
	for _, tc := range []struct {
		name       string
		configure  func(*server.Config)
		prepare    func(*server.Server)
		o          op
		req        interface{}
		xml, frame action
		status     int // of both answers, when it is the point of the row
	}{
		{name: "healthy read", o: opLookup, req: lookup, xml: actFinal, frame: actFinal},
		{name: "bad session", o: opVote, req: vote, xml: actFinal, frame: actFinal},
		{name: "malformed id", o: opLookup, req: badID, xml: actFinal, frame: actFinal, status: http.StatusBadRequest},
		{name: "draining", prepare: func(s *server.Server) { s.SetDraining(true) },
			o: opLookup, req: lookup, xml: actSweepOn, frame: actSweepOn},
		{name: "replica write", configure: func(c *server.Config) { c.Replica, c.PrimaryURL = true, "http://primary" },
			o: opVote, req: vote, xml: actRedirect, frame: actRedirect},
		{name: "fenced write", prepare: func(s *server.Server) { _ = s.Promote(); s.ObserveEpoch(s.Epoch() + 1) },
			o: opVote, req: vote, xml: actSweepOn, frame: actSweepOn},
		{name: "xml-only", configure: func(c *server.Config) { c.DisableBinary = true },
			o: opLookup, req: lookup, xml: actFinal, frame: actResendXML},
	} {
		f := newBinFixture(t, tc.configure)
		if tc.prepare != nil {
			tc.prepare(f.srv)
		}
		api := NewAPI(f.ts.URL, f.ts.Client())
		for _, binary := range []bool{false, true} {
			body, want := encodeFrame(tc.req), tc.frame
			if !binary {
				var err error
				if body, err = encodeXML(tc.req); err != nil {
					t.Fatal(err)
				}
				want = tc.xml
			}
			resp := interface{}(&wire.LookupResponse{})
			if tc.o.path == wire.PathVote {
				resp = &wire.VoteResponse{}
			}
			err := api.send(context.Background(), f.ts.URL, tc.o.path, binary, body, resp)
			if v := disposition(err, binary); v.act != want {
				t.Errorf("%s (binary %v): %v read as %s, want %s", tc.name, binary, err, actionNames[v.act], actionNames[want])
			} else if v.act == actRedirect && v.primary != "http://primary" {
				t.Errorf("%s: redirect names %q", tc.name, v.primary)
			}
			var se *resilience.HTTPStatusError
			if errors.As(err, &se) && se.Binary != (binary && want != actResendXML) {
				t.Errorf("%s (binary %v): answered in binary = %v", tc.name, binary, se.Binary)
			}
			if tc.status != 0 && (se == nil || se.Status != tc.status) {
				t.Errorf("%s (binary %v): %v, want status %d", tc.name, binary, err, tc.status)
			}
		}
	}
}
