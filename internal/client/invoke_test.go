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
// answers of a server from before sessions and of no server at all,
// against what the client does with each. The table is DESIGN.md's
// "Request path (client)"; a server row added without a client reading
// belongs here. An answer to a call is read as it is, whatever its
// codec; only a session's upgrade, read by upgradeError, can answer "no
// session here".
func TestDispositionTable(t *testing.T) {
	type exchange struct{ upgrade, answeredBinary bool }
	var (
		xml          = exchange{false, false} // a call answered in XML, on a session or over HTTP
		frames       = exchange{false, true}
		xmlUpgrade   = exchange{true, false} // an upgrade answered with no frame
		frameUpgrade = exchange{true, true}
		anyCodec     = []exchange{xml, frames, xmlUpgrade, frameUpgrade}
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
		// The batch endpoint takes frames only.
		{"XML batch", 415, wire.CodeUnsupportedMedia, []exchange{xml}, actFinal},
		// An endpoint that takes no session: a server from before sessions
		// (404, 405), one from before XML sessions (400), a connection that
		// cannot carry one (415). In a frame, the same answer to an upgrade
		// is the application's.
		{"415 to an upgrade", 415, wire.CodeUnsupportedMedia, []exchange{xmlUpgrade}, actResendXML},
		{"415 frame to an upgrade", 415, wire.CodeUnsupportedMedia, []exchange{frameUpgrade}, actFinal},
		{"unknown token 400", 400, wire.CodeBadRequest, []exchange{xmlUpgrade}, actResendXML},
		{"pre-session 404", 404, "", []exchange{xmlUpgrade}, actResendXML},
		{"pre-session 405", 405, "", []exchange{xmlUpgrade}, actResendXML},
		// A session's upgrade answered without a connection to write to.
		{"101 without a session", 101, "", []exchange{xmlUpgrade}, actResendXML},
		{"2xx to an upgrade", 200, "", []exchange{xmlUpgrade}, actResendXML},
	}
	check := func(name string, err error, want action) {
		t.Helper()
		v := disposition(err)
		if v.act != want {
			t.Errorf("%s: %s, want %s", name, actionNames[v.act], actionNames[want])
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
			se := &resilience.HTTPStatusError{Status: row.status, Binary: ex.answeredBinary, Err: doc}
			err := error(se)
			if ex.upgrade {
				err = upgradeError(se)
			}
			name := fmt.Sprintf("%s (%+v)", row.name, ex)
			check(name, err, row.want)
			if v := disposition(err); v.act == actRedirect && v.primary != "http://primary" {
				t.Errorf("%s: redirect names %q", name, v.primary)
			}
		}
	}
	check("success", nil, actFinal)
	check("transport error", fmt.Errorf("client: %s: %w", wire.PathLookup, errors.New("connection refused")), actSweepOn)
}

// TestDispositionOfLiveAnswers sends real requests, XML over HTTP and
// calls on a session in each codec, to real servers in the states a
// client meets, and reads the answers: the table above is about
// documents this server actually writes.
func TestDispositionOfLiveAnswers(t *testing.T) {
	lookup := &wire.LookupRequest{Software: metaToWire(binMeta(1))}
	vote := &wire.VoteRequest{Session: "nope", Software: metaToWire(binMeta(1)), Score: 5}
	badID := &wire.LookupRequest{Software: wire.SoftwareInfo{ID: "not-hex"}}
	for _, tc := range []struct {
		name          string
		configure     func(*server.Config)
		preBinary     bool
		prepare       func(*server.Server)
		o             op
		req           interface{}
		http, session action
		status        int // of every answer, when it is the point of the row
	}{
		{name: "healthy read", o: opLookup, req: lookup, http: actFinal, session: actFinal},
		{name: "bad session", o: opVote, req: vote, http: actFinal, session: actFinal},
		{name: "malformed id", o: opLookup, req: badID, http: actFinal, session: actFinal, status: http.StatusBadRequest},
		{name: "draining", prepare: func(s *server.Server) { s.SetDraining(true) },
			o: opLookup, req: lookup, http: actSweepOn, session: actSweepOn},
		{name: "replica write", configure: func(c *server.Config) { c.Replica, c.PrimaryURL = true, "http://primary" },
			o: opVote, req: vote, http: actRedirect, session: actRedirect},
		{name: "fenced write", prepare: func(s *server.Server) { _ = s.Promote(); s.ObserveEpoch(s.Epoch() + 1) },
			o: opVote, req: vote, http: actSweepOn, session: actSweepOn},
		{name: "pre-session lookup", preBinary: true, o: opLookup, req: lookup, http: actFinal, session: actResendXML},
		{name: "pre-session vote", preBinary: true, o: opVote, req: vote, http: actFinal, session: actResendXML},
	} {
		f := newBinFixture(t, tc.configure)
		if tc.preBinary {
			f.preBinary()
		}
		if tc.prepare != nil {
			tc.prepare(f.srv)
		}
		api := NewAPI(f.ts.URL, f.ts.Client())
		for _, via := range []string{"http", "xml session", "binary session"} {
			binary := via == "binary session"
			body, err := encodeBody(tc.req, binary)
			if err != nil {
				t.Fatal(err)
			}
			resp := interface{}(&wire.LookupResponse{})
			if tc.o.path == wire.PathVote {
				resp = &wire.VoteResponse{}
			}
			want := tc.session
			if via == "http" {
				want, err = tc.http, api.send(context.Background(), f.ts.URL, tc.o.path, body, resp)
			} else {
				err = api.callFramed(context.Background(), f.ts.URL, tc.o.path, binary, body, resp)
			}
			if v := disposition(err); v.act != want {
				t.Errorf("%s (%s): %v read as %s, want %s", tc.name, via, err, actionNames[v.act], actionNames[want])
			} else if v.act == actRedirect && v.primary != "http://primary" {
				t.Errorf("%s: redirect names %q", tc.name, v.primary)
			}
			var se *resilience.HTTPStatusError
			if errors.As(err, &se) && se.Binary != (binary && want != actResendXML) {
				t.Errorf("%s (%s): answered in binary = %v", tc.name, via, se.Binary)
			}
			if tc.status != 0 && (se == nil || se.Status != tc.status) {
				t.Errorf("%s (%s): %v, want status %d", tc.name, via, err, tc.status)
			}
		}
	}
}
