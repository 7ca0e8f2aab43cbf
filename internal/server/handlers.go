package server

import (
	"bytes"
	"cmp"
	"errors"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"

	"softreputation/internal/admission"
	"softreputation/internal/core"
	"softreputation/internal/identity"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// Handler returns the server's HTTP handler: the XML API under /api/
// and the HTML web view on /.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathChallenge, s.handleChallenge)
	mux.HandleFunc(wire.PathRegister, s.handleRegister)
	mux.HandleFunc(wire.PathActivate, s.handleActivate)
	mux.HandleFunc(wire.PathLogin, s.handleLogin)
	mux.HandleFunc(wire.PathLookup, s.handleLookup)
	mux.HandleFunc(wire.PathLookupBatch, s.handleLookupBatch)
	mux.HandleFunc(wire.PathVote, s.handleVote)
	mux.HandleFunc(wire.PathRemark, s.handleRemark)
	mux.HandleFunc(wire.PathVendor, s.handleVendor)
	mux.HandleFunc(wire.PathStats, s.handleStats)
	mux.HandleFunc(wire.PathHealthz, s.handleHealthz)
	mux.HandleFunc(wire.PathReplStatus, s.handleReplStatus)
	if s.tel != nil {
		mux.HandleFunc(wire.PathMetrics, s.handleMetrics)
		mux.HandleFunc(wire.PathTrace, s.handleTrace)
	}
	if pub := s.cfg.Publisher; pub != nil {
		mux.HandleFunc(wire.PathReplSnapshot, pub.ServeSnapshot)
		mux.HandleFunc(wire.PathReplWAL, pub.ServeWAL)
		mux.HandleFunc(wire.PathReplDigest, pub.ServeDigest)
	}
	s.registerWeb(mux)
	return s.harden(mux)
}

// encBuffers pools the buffers encodeXMLBody renders cached reports in.
var encBuffers = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// writeXML sends v with a 200 status.
func writeXML(w http.ResponseWriter, v interface{}) {
	writeXMLStatus(w, http.StatusOK, v)
}

// writeXMLStatus sends v with the given status, rendered straight into
// the scope: that write fails only after a time-out, for no one to see.
func writeXMLStatus(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = xmlContentType
	w.WriteHeader(status)
	_ = wire.Encode(w, v)
}

// encodeXMLBody renders v to a fresh exact-size byte slice via the
// buffer pool — the form the report cache stores.
func encodeXMLBody(v interface{}) ([]byte, error) {
	buf := encBuffers.Get().(*bytes.Buffer)
	defer encBuffers.Put(buf)
	buf.Reset()
	if err := wire.Encode(buf, v); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}

// errorCodeStatus maps a domain error onto its wire error code and HTTP
// status, shared by the XML and binary error writers.
func errorCodeStatus(err error) (string, int) {
	code := wire.CodeInternal
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, repo.ErrUserExists):
		code, status = wire.CodeUserExists, http.StatusConflict
	case errors.Is(err, repo.ErrEmailTaken):
		code, status = wire.CodeEmailTaken, http.StatusConflict
	case errors.Is(err, ErrCaptchaRequired):
		code, status = wire.CodeCaptchaFailed, http.StatusForbidden
	case errors.Is(err, ErrPuzzleRequired):
		code, status = wire.CodePuzzleFailed, http.StatusForbidden
	case errors.Is(err, ErrBadCredentials), errors.Is(err, identity.ErrTokenInvalid):
		code, status = wire.CodeBadCreds, http.StatusUnauthorized
	case errors.Is(err, ErrNotActivated):
		code, status = wire.CodeNotActivated, http.StatusForbidden
	case errors.Is(err, ErrBadSession):
		code, status = wire.CodeBadSession, http.StatusUnauthorized
	case errors.Is(err, repo.ErrAlreadyRated):
		code, status = wire.CodeAlreadyRated, http.StatusConflict
	case errors.Is(err, repo.ErrAlreadyRemarked):
		code, status = wire.CodeAlreadyMarked, http.StatusConflict
	case errors.Is(err, repo.ErrSelfRemark):
		code, status = wire.CodeSelfRemark, http.StatusConflict
	case errors.Is(err, repo.ErrCommentNotFound),
		errors.Is(err, repo.ErrUserNotFound),
		errors.Is(err, repo.ErrSoftwareNotFound):
		code, status = wire.CodeNotFound, http.StatusNotFound
	case errors.Is(err, ErrVoteBudget), errors.Is(err, ErrSignupThrottled):
		code, status = wire.CodeRateLimited, http.StatusTooManyRequests
	case errors.Is(err, core.ErrScoreRange), errors.Is(err, identity.ErrBadEmail):
		code, status = wire.CodeBadRequest, http.StatusBadRequest
	case errors.Is(err, storedb.ErrStorageFailed):
		// Storage is in its sticky failed state: this server cannot make
		// writes durable until an operator (or the supervisor loop)
		// reopens it. 503 tells the client to fail over, not retry here.
		code, status = wire.CodeUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, storedb.ErrFenced):
		// A write raced past the shed gate as the fence dropped: same
		// answer the gate gives, fail over to the new primary.
		code, status = wire.CodeFenced, http.StatusServiceUnavailable
	}
	return code, status
}

// writeError maps a domain error onto a wire error code and HTTP status.
func writeError(w http.ResponseWriter, err error) {
	code, status := errorCodeStatus(err)
	writeXMLStatus(w, status, &wire.ErrorResponse{Code: code, Message: err.Error()})
}

// decodeBody parses the request body into v, answering bad-request on
// failure and reporting whether the handler should continue.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body, err := readBody(w, r)
	if err == nil {
		err = wire.Decode(bytes.NewReader(body), v)
	}
	if err != nil {
		writeXMLStatus(w, http.StatusBadRequest, &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: err.Error()})
		return false
	}
	return true
}

// requirePost answers anything but a POST 405, reporting whether to continue.
func requirePost(w http.ResponseWriter, r *http.Request, bin bool) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeBadRequest(w, bin, http.StatusMethodNotAllowed, errors.New("method not allowed: "+r.Method))
		return false
	}
	return true
}

func (s *Server) handleChallenge(w http.ResponseWriter, r *http.Request) {
	// Challenges feed registration, which only the primary accepts, and
	// their nonces live in this server's memory — a challenge from a
	// replica could never be redeemed.
	if s.rejectWriteOnReplica(w) {
		return
	}
	ch, err := s.IssueChallenge()
	if err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.ChallengeResponse{
		CaptchaNonce:     ch.Captcha.Nonce,
		PuzzleNonce:      ch.Puzzle.Nonce,
		PuzzleDifficulty: ch.Puzzle.Difficulty,
	})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.rejectWriteOnReplica(w) {
		return
	}
	if !requirePost(w, r, false) {
		return
	}
	var req wire.RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	remoteIP, _, splitErr := net.SplitHostPort(r.RemoteAddr)
	if splitErr != nil {
		remoteIP = r.RemoteAddr
	}
	err := s.RegisterFrom(remoteIP, RegisterParams{
		Username:        req.Username,
		Password:        req.Password,
		Email:           req.Email,
		CaptchaNonce:    req.CaptchaNonce,
		CaptchaSolution: req.CaptchaSolution,
		PuzzleNonce:     req.PuzzleNonce,
		PuzzleSolution:  req.PuzzleSolution,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.RegisterResponse{Username: req.Username})
}

func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	if s.rejectWriteOnReplica(w) {
		return
	}
	if !requirePost(w, r, false) {
		return
	}
	var req wire.ActivateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	username, err := s.Activate(req.Token)
	if err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.ActivateResponse{Username: username})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	// Sessions are per-server state and exist to authorise writes, so
	// logins belong on the primary.
	if s.rejectWriteOnReplica(w) {
		return
	}
	if !requirePost(w, r, false) {
		return
	}
	var req wire.LoginRequest
	if !decodeBody(w, r, &req) {
		return
	}
	token, err := s.Login(req.Username, req.Password)
	if err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.LoginResponse{Token: token})
}

// metaFromWire converts the wire software block to the domain form.
func metaFromWire(info wire.SoftwareInfo) (core.SoftwareMeta, error) {
	id, err := core.ParseSoftwareID(info.ID)
	if err != nil {
		return core.SoftwareMeta{}, err
	}
	return core.SoftwareMeta{
		ID:       id,
		FileName: info.FileName,
		FileSize: info.FileSize,
		Vendor:   info.Vendor,
		Version:  info.Version,
	}, nil
}

// maxCachedLookupRequest bounds the request bodies used verbatim as
// cache keys; larger bodies (a pathological feed list) fall back to the
// semantic id+feeds key, which requires the decode but stays bounded.
const maxCachedLookupRequest = 4 << 10

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	isBin := isBinaryRequest(r)
	if isBin && !s.binaryEnabled() {
		writeUnsupportedMedia(w)
		return
	}
	if !requirePost(w, r, isBin) {
		return
	}
	format := repcache.FormatXML
	if isBin {
		format = repcache.FormatBinary
	}
	body, err := readBody(w, r)
	if err != nil {
		writeBadRequest(w, isBin, http.StatusBadRequest, err)
		return
	}
	if isBin {
		s.tel.binaryFrameIn(len(body))
	}
	// Wire-level fast path: an identical request produces an identical
	// report, so a repeated body serves the cached pre-encoded bytes
	// without even parsing the request. Entries are owned by the
	// software identity (established when the entry was filled), so the
	// usual invalidation hooks cover them. The format prefix keeps one
	// report's XML and binary encodings as sibling entries. The key, built
	// once for probe and fill, copies the body out of the scope's buffer.
	var key string
	bodyKeyed := len(body) <= maxCachedLookupRequest
	if bodyKeyed {
		key = bodyCacheKey(format, body)
		if data, ok := s.reports.Probe(key); ok {
			if isBin {
				s.tel.binaryFrameOut(len(data))
			}
			writeNegotiated(w, isBin, data)
			return
		}
	}
	var req wire.LookupRequest
	if isBin {
		req, err = decodeBinaryLookupBody(body)
	} else {
		err = wire.DecodeXML(body, &req)
	}
	if err != nil {
		if isBin {
			s.tel.binaryMalformed()
		}
		writeBadRequest(w, isBin, http.StatusBadRequest, err)
		return
	}
	meta, err := metaFromWire(req.Software)
	if err != nil {
		writeErrorNegotiated(w, isBin, err)
		return
	}
	lean := s.leanReports()
	fill := func() ([]byte, bool, error) {
		resp, err := s.buildLookupResponse(meta, req.Feeds, lean)
		if err != nil {
			return nil, false, err
		}
		var data []byte
		if isBin {
			data = wire.EncodeBinaryReport(resp)
		} else if data, err = encodeXMLBody(resp); err != nil {
			return nil, false, err
		}
		// First-sight responses carry Known=false, which must flip to
		// true on the next lookup — never cache them. Lean brownout
		// reports are equally uncacheable: they must not outlive the
		// brownout.
		return data, resp.Known && !lean, nil
	}
	if !bodyKeyed {
		key = repcache.FormatKey(format, reportCacheKey(meta.ID, req.Feeds))
	}
	data, err := s.reports.Do(reportOwner(meta.ID), key, fill)
	if err != nil {
		writeErrorNegotiated(w, isBin, err)
		return
	}
	if isBin {
		s.tel.binaryFrameOut(len(data))
	}
	writeNegotiated(w, isBin, data)
}

// bodyCacheKey is repcache.FormatKey(format, string(body)) in one allocation.
func bodyCacheKey(format string, body []byte) string { return format + string(body) }

// reportCacheKey keys a cached report by executable identity plus the
// request's feed subscription list, order preserved — the feed order
// decides the advice order in the response. It is the fallback key for
// requests too large to key by their own bytes.
func reportCacheKey(id core.SoftwareID, feeds []string) string {
	if len(feeds) == 0 {
		return string(id[:])
	}
	var b strings.Builder
	b.Grow(len(id) + 16*len(feeds))
	b.Write(id[:])
	for _, f := range feeds {
		b.WriteByte(0)
		b.WriteString(f)
	}
	return b.String()
}

// leanReports reports whether cache misses should get lean reports.
// Brownout: at LevelCacheOnly and above (or with storage failed), cache
// hits still serve the full pre-encoded report (cheap), but misses get
// a lean report — score and vendor rating only — built without the
// comment and feed work, and never cached so a recovered server goes
// back to full reports immediately.
func (s *Server) leanReports() bool {
	return (s.admit != nil && s.admit.Level() >= admission.LevelCacheOnly) || s.storageFailed()
}

// buildLookupResponse assembles the wire form of one report.
func (s *Server) buildLookupResponse(meta core.SoftwareMeta, feeds []string, lean bool) (*wire.LookupResponse, error) {
	rep, err := s.lookupReport(meta, feeds, lean)
	if err != nil {
		return nil, err
	}
	resp := &wire.LookupResponse{
		Known:       rep.Known,
		ID:          meta.ID.String(),
		Score:       rep.Score.Score,
		Votes:       rep.Score.Votes,
		Behaviors:   rep.Score.Behaviors.String(),
		Vendor:      rep.Vendor.Vendor,
		VendorScore: rep.Vendor.Score,
		VendorCount: rep.Vendor.SoftwareCount,
	}
	if len(rep.Comments) > 0 {
		resp.Comments = make([]wire.CommentInfo, len(rep.Comments))
		for i := range rep.Comments {
			c := &rep.Comments[i]
			resp.Comments[i] = wire.CommentInfo{
				ID:          c.ID,
				User:        s.DisplayName(c.UserID),
				Text:        c.Text,
				Positive:    c.Positive,
				Negative:    c.Negative,
				At:          c.At.Format(wire.TimeFormat),
				AuthorTrust: c.AuthorTrust,
			}
		}
		// Reliable users first (§2.1); ties keep submission order.
		slices.SortStableFunc(resp.Comments, func(a, b wire.CommentInfo) int {
			return cmp.Compare(b.AuthorTrust, a.AuthorTrust)
		})
	}
	if len(rep.Advice) > 0 {
		resp.Advice = make([]wire.AdviceInfo, len(rep.Advice))
		for i, fa := range rep.Advice {
			resp.Advice[i] = wire.AdviceInfo{
				Feed:      fa.Feed,
				Score:     fa.Advice.Score,
				Behaviors: fa.Advice.Behaviors.String(),
				Note:      fa.Advice.Note,
			}
		}
	}
	return resp, nil
}

func (s *Server) handleVote(w http.ResponseWriter, r *http.Request) {
	isBin := isBinaryRequest(r)
	if isBin && !s.binaryEnabled() {
		writeUnsupportedMedia(w)
		return
	}
	if s.rejectWriteOnReplicaNegotiated(w, isBin) {
		return
	}
	if !requirePost(w, r, isBin) {
		return
	}
	var req wire.VoteRequest
	body, err := readBody(w, r)
	if err == nil && isBin {
		s.tel.binaryFrameIn(len(body))
		req, err = decodeBinaryVoteBody(body)
	} else if err == nil {
		err = wire.DecodeXML(body, &req)
	}
	if err != nil {
		if isBin {
			s.tel.binaryMalformed()
		}
		writeBadRequest(w, isBin, http.StatusBadRequest, err)
		return
	}
	meta, err := metaFromWire(req.Software)
	if err != nil {
		writeErrorNegotiated(w, isBin, err)
		return
	}
	behaviors, err := core.ParseBehavior(req.Behaviors)
	if err != nil {
		writeErrorNegotiated(w, isBin, err)
		return
	}
	commentID, err := s.Vote(req.Session, meta, req.Score, behaviors, req.Comment)
	if err != nil {
		writeErrorNegotiated(w, isBin, err)
		return
	}
	if isBin {
		ack := wire.EncodeBinaryVoteAck(&wire.VoteResponse{CommentID: commentID})
		s.tel.binaryFrameOut(len(ack))
		writeNegotiated(w, true, ack)
		return
	}
	writeNegotiated(w, false, wire.AppendXML(nil, &wire.VoteResponse{CommentID: commentID}))
}

func (s *Server) handleRemark(w http.ResponseWriter, r *http.Request) {
	if s.rejectWriteOnReplica(w) {
		return
	}
	if !requirePost(w, r, false) {
		return
	}
	var req wire.RemarkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.Remark(req.Session, req.CommentID, req.Positive); err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.RemarkResponse{})
}

func (s *Server) handleVendor(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r, false) {
		return
	}
	var req wire.VendorRequest
	if !decodeBody(w, r, &req) {
		return
	}
	vs, known, err := s.VendorReport(req.Vendor)
	if err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.VendorResponse{
		Vendor:        req.Vendor,
		Known:         known,
		Score:         vs.Score,
		SoftwareCount: vs.SoftwareCount,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.store.Stats()
	if err != nil {
		writeError(w, err)
		return
	}
	writeXML(w, wire.StatsResponse{
		Users:    st.Users,
		Software: st.Software,
		Ratings:  st.Ratings,
		Comments: st.Comments,
		Remarks:  st.Remarks,
	})
}
