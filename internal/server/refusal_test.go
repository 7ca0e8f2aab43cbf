package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// nodeState is one combination of the five conditions under which a
// node says no.
type nodeState struct{ draining, replica, fenced, corrupt, failed bool }

func (st nodeState) String() string {
	name := ""
	for _, f := range []struct {
		on   bool
		name string
	}{{st.draining, "draining"}, {st.replica, "replica"}, {st.fenced, "fenced"}, {st.corrupt, "corrupt"}, {st.failed, "failed"}} {
		if f.on {
			name += "+" + f.name
		}
	}
	if name == "" {
		return "healthy"
	}
	return name[1:]
}

const refusalPrimary = "http://primary.example"

// The refusal documents as the XML protocol has always carried them,
// byte for byte. The epoch is 1: newRefusalNode promotes once.
const (
	xmlProlog   = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
	drainingXML = xmlProlog + `<error code="unavailable">server is draining for shutdown</error>`
	redirectXML = xmlProlog + `<error code="redirect" primary="http://primary.example" epoch="1">replica does not accept writes; use the primary</error>`
	fencedXML   = xmlProlog + `<error code="fenced" epoch="1">fenced by a higher promotion epoch; writes refused</error>`
	corruptXML  = xmlProlog + `<error code="unavailable">storage corrupt: writes unavailable until repaired from a healthy peer</error>`
	failedXML   = xmlProlog + `<error code="unavailable">storage degraded: writes unavailable until reopen</error>`
)

// refusalWant is the answer one row of the table expects. xml == "" is
// a served request: only the status is pinned.
type refusalWant struct {
	status     int
	xml        string
	retryAfter bool
	shed       int64
}

// wantRefusal is the table: a bypass path is always served, draining
// outranks everything else, reads are otherwise served, and a write gets
// the store's precedence — replica, fenced, corrupt, failed.
func wantRefusal(st nodeState, write, bypass bool, served int) refusalWant {
	switch {
	case bypass:
		return refusalWant{status: http.StatusOK}
	case st.draining:
		return refusalWant{http.StatusServiceUnavailable, drainingXML, true, 1}
	case !write:
		return refusalWant{status: served}
	case st.replica:
		return refusalWant{http.StatusMisdirectedRequest, redirectXML, false, 0}
	case st.fenced:
		return refusalWant{http.StatusServiceUnavailable, fencedXML, true, 1}
	case st.corrupt:
		return refusalWant{http.StatusServiceUnavailable, corruptXML, true, 1}
	case st.failed:
		return refusalWant{http.StatusServiceUnavailable, failedXML, true, 1}
	}
	return refusalWant{status: served}
}

// newRefusalNode starts a server over a disk store and drives it into
// st through the transitions production uses: a promotion (so the epoch
// is 1), an injected fsync error, a bit flipped in the snapshot and
// found by scrub, a demotion, a fence, the drain flag.
func newRefusalNode(t *testing.T, st nodeState) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := repo.Open(storedb.Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := New(Config{Store: store, EmailPepper: "p"})
	if err != nil {
		t.Fatal(err)
	}
	db := store.DB()
	if err := srv.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.failed {
		plan := storedb.NewFaultPlan(&storedb.FaultRule{
			Op: storedb.FaultSync, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO,
		})
		plan.Install()
		err := db.Update(func(tx *storedb.Tx) error { return tx.MustBucket("t").Put([]byte("k"), []byte("v")) })
		storedb.UninstallFaults()
		if err == nil {
			t.Fatal("injected fsync error did not fail the store")
		}
	}
	if st.corrupt {
		if err := storedb.FlipFileBit(filepath.Join(dir, "SNAPSHOT"), 100); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Scrub(context.Background()); err == nil {
			t.Fatal("scrub did not find the flipped bit")
		}
	}
	if st.replica {
		srv.DemoteToReplica(refusalPrimary)
	}
	if st.fenced {
		db.Fence()
	}
	srv.SetDraining(st.draining)
	if h := db.Health(); h.Failed != st.failed || h.Corrupt != st.corrupt || db.Fenced() != st.fenced || db.ReplicaMode() != st.replica {
		t.Fatalf("store state failed=%v corrupt=%v fenced=%v replica=%v, want %v", h.Failed, h.Corrupt, db.Fenced(), db.ReplicaMode(), st)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// TestRefusalTable pins what a node answers, in which order, in every
// combination of {draining, replica, fenced, corrupt, failed} on a read
// path, a write path (also at background priority, which must not make
// it less of a write) and the bypass paths, for an XML and a binary
// request, and for the binary request as a call on a session (a
// draining node refuses the session's upgrade itself): status, document,
// codec, Retry-After, and the shed counter.
func TestRefusalTable(t *testing.T) {
	lookup := &wire.LookupRequest{Software: wireMeta(1)}
	vote := &wire.VoteRequest{Session: "nope", Software: wireMeta(1), Score: 5}
	var lookupXML, voteXML bytes.Buffer
	if err := wire.Encode(&lookupXML, lookup); err != nil {
		t.Fatal(err)
	}
	if err := wire.Encode(&voteXML, vote); err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name, method, path, priority string
		write, bypass                bool
		served                       int
		bodies                       [2][]byte // XML, binary
	}{
		{name: "read", method: http.MethodPost, path: wire.PathLookup, served: http.StatusOK,
			bodies: [2][]byte{lookupXML.Bytes(), wire.EncodeBinaryLookup(lookup)}},
		{name: "write", method: http.MethodPost, path: wire.PathVote, write: true, served: http.StatusUnauthorized,
			bodies: [2][]byte{voteXML.Bytes(), wire.EncodeBinaryVote(vote)}},
		{name: "write-background", method: http.MethodPost, path: wire.PathVote, priority: wire.PriorityBackground,
			write: true, served: http.StatusUnauthorized,
			bodies: [2][]byte{voteXML.Bytes(), wire.EncodeBinaryVote(vote)}},
		{name: "healthz", method: http.MethodGet, path: wire.PathHealthz, bypass: true},
		{name: "replstatus", method: http.MethodGet, path: wire.PathReplStatus, bypass: true},
		{name: "metrics", method: http.MethodGet, path: wire.PathMetrics, bypass: true},
		{name: "trace", method: http.MethodGet, path: wire.PathTrace, bypass: true},
	}
	codecs := []string{wire.ContentType, wire.BinaryContentType, wire.BinaryContentType}

	for bits := 0; bits < 1<<5; bits++ {
		st := nodeState{bits&16 != 0, bits&8 != 0, bits&4 != 0, bits&2 != 0, bits&1 != 0}
		t.Run(st.String(), func(t *testing.T) {
			srv, base := newRefusalNode(t, st)
			for _, k := range kinds {
				for ci, codec := range codecs {
					session := ci == 2
					if session && wire.PathOp(k.path) == 0 {
						continue
					}
					row := fmt.Sprintf("%s/%s", k.name, []string{"xml", "binary", "session"}[ci])
					want := wantRefusal(st, k.write, k.bypass, k.served)
					shedBefore := srv.ShedCount()
					var resp *http.Response
					var body []byte
					if session {
						resp, body = sessionExchange(t, base, k.path, k.priority, k.bodies[1])
					} else {
						req, err := http.NewRequest(k.method, base+k.path, bytes.NewReader(k.bodies[ci]))
						if err != nil {
							t.Fatal(err)
						}
						req.Header.Set("Content-Type", codec)
						if k.priority != "" {
							req.Header.Set(wire.HeaderPriority, k.priority)
						}
						if resp, err = http.DefaultClient.Do(req); err != nil {
							t.Fatal(err)
						}
						body, _ = io.ReadAll(resp.Body)
						resp.Body.Close()
					}

					if resp.StatusCode != want.status {
						t.Errorf("%s: status = %d, want %d; body %q", row, resp.StatusCode, want.status, body)
						continue
					}
					if got := srv.ShedCount() - shedBefore; got != want.shed {
						t.Errorf("%s: shed count moved by %d, want %d", row, got, want.shed)
					}
					if got := resp.Header.Get("Retry-After") != ""; got != want.retryAfter {
						t.Errorf("%s: Retry-After present = %v, want %v", row, got, want.retryAfter)
					}
					if k.path == wire.PathHealthz {
						checkRefusalHealthz(t, row, st, body)
					}
					if want.xml == "" {
						continue
					}
					// A refusal comes in the request's codec; both carry the
					// same document.
					if ct := resp.Header.Get("Content-Type"); ct != codec {
						t.Errorf("%s: refusal Content-Type = %q, want the request's %q", row, ct, codec)
						continue
					}
					if codec == wire.ContentType {
						if string(body) != want.xml {
							t.Errorf("%s: document = %s, want %s", row, body, want.xml)
						}
						continue
					}
					var wantDoc wire.ErrorResponse
					if err := wire.Decode(bytes.NewReader([]byte(want.xml)), &wantDoc); err != nil {
						t.Fatal(err)
					}
					payload, rest, err := wire.SplitBinaryFrame(body)
					if err != nil || len(rest) != 0 {
						t.Errorf("%s: body is not one binary frame: %v", row, err)
						continue
					}
					got, err := wire.DecodeBinaryError(payload)
					if err != nil {
						t.Errorf("%s: %v", row, err)
						continue
					}
					if got.Code != wantDoc.Code || got.Message != wantDoc.Message || got.Primary != wantDoc.Primary || got.Epoch != wantDoc.Epoch {
						t.Errorf("%s: document = %+v, want %+v", row, got, wantDoc)
					}
				}
			}
		})
	}
}

// sessionExchange sends a binary request as a call on a new session and
// returns the answer as the HTTP response it stands for: status,
// Retry-After and a binary Content-Type. A refused upgrade is returned as
// it is.
func sessionExchange(t *testing.T, base, path, priority string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	rs, refused := dialSession(t, base)
	if rs == nil {
		body, _ := io.ReadAll(refused.Body)
		refused.Body.Close()
		return refused, body
	}
	a := rs.call(&wire.Call{Op: wire.PathOp(path), Priority: []byte(priority), Request: frame})
	resp := &http.Response{StatusCode: a.Status, Header: http.Header{"Content-Type": {wire.BinaryContentType}}}
	if a.RetryAfter > 0 {
		resp.Header.Set("Retry-After", fmt.Sprint(a.RetryAfter))
	}
	return resp, a.Body
}

// checkRefusalHealthz holds /healthz to the state the node is in: the
// drain flag included, which only a served /healthz can show.
func checkRefusalHealthz(t *testing.T, row string, st nodeState, body []byte) {
	t.Helper()
	var h wire.HealthzResponse
	if err := wire.Decode(bytes.NewReader(body), &h); err != nil {
		t.Errorf("%s: %v", row, err)
		return
	}
	role, storage := wire.RolePrimary, wire.StorageOK
	if st.replica {
		role = wire.RoleReplica
	}
	if st.failed {
		storage = wire.StorageFailed
	}
	if st.corrupt {
		storage = wire.StorageCorrupt
	}
	if h.Draining != st.draining || h.Role != role || h.Fenced != st.fenced || h.Storage == nil || h.Storage.State != storage {
		t.Errorf("%s: healthz = draining %v role %s fenced %v storage %+v, want %v", row, h.Draining, h.Role, h.Fenced, h.Storage, st)
	}
}

// TestRacedWriteGetsTheGatesAnswer covers the write that passes the gate
// and is refused by the store a moment later: the handler's error gets
// the row the gate would have given, not a 500.
func TestRacedWriteGetsTheGatesAnswer(t *testing.T) {
	srv, _ := newRefusalNode(t, nodeState{})
	for _, c := range []struct {
		err  error
		want refusal
	}{
		{storedb.ErrReplica, refuseReplica},
		{storedb.ErrFenced, refuseFenced},
		{storedb.ErrStorageCorrupt, refuseCorrupt},
		{storedb.ErrStorageFailed, refuseFailed},
	} {
		sc := &scope{s: srv, header: make(http.Header)}
		sc.failErr(fmt.Errorf("repo: add rating: %w", c.err))
		var doc wire.ErrorResponse
		if err := wire.Decode(&sc.out, &doc); err != nil {
			t.Fatal(err)
		}
		if sc.status != c.want.status || doc.Code != c.want.code || doc.Message != c.want.message {
			t.Errorf("%v: answered %d %+v, want row %+v", c.err, sc.status, doc, c.want)
		}
	}
}

// TestPromoteRefusedOnCorruptStore: a replica whose store scrub has
// marked corrupt cannot be promoted, before or after its files are
// quarantined: the epoch bump would land in a log that failed
// verification, or in no log at all. The node stays a replica at its
// old position.
func TestPromoteRefusedOnCorruptStore(t *testing.T) {
	srv, _ := newRefusalNode(t, nodeState{replica: true, corrupt: true})
	db := srv.store.DB()
	seq, epoch := db.Seq(), db.Epoch()
	refused := func(when string) {
		t.Helper()
		if err := srv.Promote(); !errors.Is(err, storedb.ErrStorageCorrupt) {
			t.Errorf("Promote %s: err = %v, want ErrStorageCorrupt", when, err)
		}
		if !srv.IsReplica() || db.Seq() != seq || db.Epoch() != epoch {
			t.Errorf("Promote %s: replica=%v (seq, epoch) = (%d, %d), want a replica at (%d, %d)",
				when, srv.IsReplica(), db.Seq(), db.Epoch(), seq, epoch)
		}
	}
	refused("before quarantine")
	if _, err := db.QuarantineCorrupt(); err != nil {
		t.Fatal(err)
	}
	refused("after quarantine")
}
