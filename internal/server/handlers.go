package server

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"errors"
	"net"
	"net/http"
	"slices"
	"strings"

	"softreputation/internal/admission"
	"softreputation/internal/core"
	"softreputation/internal/identity"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/wire"
)

// Handler returns the server's HTTP handler: the XML API under /api/
// and the HTML web view on /.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The API handlers take the scope serve runs them under: their
	// ResponseWriter, their request buffer and their one error writer.
	api := func(path string, h func(*scope, *http.Request)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { h(w.(*scope), r) })
	}
	api(wire.PathChallenge, s.handleChallenge)
	api(wire.PathRegister, s.handleRegister)
	api(wire.PathActivate, s.handleActivate)
	api(wire.PathLogin, s.handleLogin)
	api(wire.PathLookup, s.handleLookup)
	api(wire.PathLookupBatch, s.handleLookupBatch)
	api(wire.PathVote, s.handleVote)
	api(wire.PathRemark, s.handleRemark)
	api(wire.PathVendor, s.handleVendor)
	api(wire.PathStats, s.handleStats)
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

// writeXML sends v with a 200 status, rendered straight into the scope:
// that write fails only after a time-out, for no one to see.
func writeXML(w http.ResponseWriter, v interface{}) {
	w.Header()["Content-Type"] = xmlContentType
	_ = wire.Encode(w, v)
}

// errorCodeStatus maps a domain error onto its wire error code and HTTP
// status. A store's write refusal is not one: scope.failErr gives it the
// gate's answer.
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
	case errors.Is(err, core.ErrScoreRange), errors.Is(err, identity.ErrBadEmail),
		errors.Is(err, core.ErrBadSoftwareID), errors.Is(err, core.ErrUnknownBehavior):
		code, status = wire.CodeBadRequest, http.StatusBadRequest
	}
	return code, status
}

// badRequest is the document of a request the server cannot read.
func badRequest(err error) *wire.ErrorResponse {
	return &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: err.Error()}
}

// decodeXML parses the request body into v, answering bad-request on
// failure and reporting whether the handler should continue.
func (sc *scope) decodeXML(r *http.Request, v interface{}) bool {
	body, err := sc.readBody(r)
	if err == nil {
		err = wire.Decode(bytes.NewReader(body), v)
	}
	if err != nil {
		sc.fail(http.StatusBadRequest, badRequest(err))
		return false
	}
	return true
}

// requirePost answers anything but a POST 405, reporting whether to continue.
func (sc *scope) requirePost(r *http.Request) bool {
	if r.Method != http.MethodPost {
		sc.header.Set("Allow", http.MethodPost)
		sc.fail(http.StatusMethodNotAllowed, badRequest(errors.New("method not allowed: "+r.Method)))
		return false
	}
	return true
}

func (s *Server) handleChallenge(sc *scope, r *http.Request) {
	ch, err := s.IssueChallenge()
	if err != nil {
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.ChallengeResponse{
		CaptchaNonce:     ch.Captcha.Nonce,
		PuzzleNonce:      ch.Puzzle.Nonce,
		PuzzleDifficulty: ch.Puzzle.Difficulty,
	})
}

func (s *Server) handleRegister(sc *scope, r *http.Request) {
	if !sc.requirePost(r) {
		return
	}
	var req wire.RegisterRequest
	if !sc.decodeXML(r, &req) {
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
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.RegisterResponse{Username: req.Username})
}

func (s *Server) handleActivate(sc *scope, r *http.Request) {
	if !sc.requirePost(r) {
		return
	}
	var req wire.ActivateRequest
	if !sc.decodeXML(r, &req) {
		return
	}
	username, err := s.Activate(req.Token)
	if err != nil {
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.ActivateResponse{Username: username})
}

func (s *Server) handleLogin(sc *scope, r *http.Request) {
	if !sc.requirePost(r) {
		return
	}
	var req wire.LoginRequest
	if !sc.decodeXML(r, &req) {
		return
	}
	token, err := s.Login(req.Username, req.Password)
	if err != nil {
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.LoginResponse{Token: token})
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

// maxCachedLookupRequest bounds a report's cache key. A body this long or
// shorter is its own key; a longer one is keyed as a batch entry is
// (reportScratch.key), unless that key would pass the bound too: then no
// cache entry keeps the feed list a client without a session chose.
const maxCachedLookupRequest = 4 << 10

func (s *Server) handleLookup(sc *scope, r *http.Request) {
	isBin := sc.bin
	if !isBin && isBinaryRequest(r) {
		sc.unsupportedMedia()
		return
	}
	if !sc.requirePost(r) {
		return
	}
	body, err := sc.readBody(r)
	if err != nil {
		sc.fail(http.StatusBadRequest, badRequest(err))
		return
	}
	if isBin {
		s.tel.binaryFrameIn(len(body))
	}
	// Wire-level fast path: an identical request produces an identical
	// report, so a repeated body serves the cached pre-encoded bytes
	// without even parsing the request. Entries are owned by the
	// software identity (established when the entry was filled), so the
	// usual invalidation hooks cover them. The key is the request as the
	// scope holds it, format prefix (which keeps a report's XML and binary
	// encodings sibling entries) and body: only a miss makes a string of it.
	key := sc.in.Bytes()
	bodyKeyed := len(body) <= maxCachedLookupRequest
	if bodyKeyed {
		if data, ok := s.reports.ProbeBytes(key); ok {
			sc.send(data)
			return
		}
	}
	rs := &sc.rep
	if isBin {
		var payload []byte
		if payload, err = splitWholeBinaryBody(body); err == nil {
			err = rs.view.ReadLookup(payload)
		}
	} else {
		rs.req = wire.LookupRequest{}
		err = wire.DecodeXML(body, &rs.req)
	}
	if err != nil {
		if isBin {
			s.tel.binaryMalformed()
		}
		sc.fail(http.StatusBadRequest, badRequest(err))
		return
	}
	// A binary request is read in place: its strings are made on a miss.
	var meta core.SoftwareMeta
	var sw *wire.SoftwareView
	if isBin {
		sw = &rs.view.Software[0]
		meta.ID, err = core.ParseSoftwareID(sw.ID)
		subscribe(s, rs, rs.view.Feeds)
	} else {
		meta, err = metaFromWire(rs.req.Software)
		subscribe(s, rs, rs.req.Feeds)
	}
	if err != nil {
		sc.failErr(err)
		return
	}
	var semantic [reportKeyScratch]byte
	if !bodyKeyed {
		key = rs.key(semantic[:0], cacheFormat[isBin], meta.ID)
	}
	data, err := s.cachedReport(sc, key, meta, sw, s.leanReports())
	if err != nil {
		sc.failErr(err)
		return
	}
	sc.send(data)
}

// subscribe resolves a request's feed list into rs once, for all of its
// entries: the feeds that exist, in order, out of one look at the feed
// table, and the report key's feed part, each name after a NUL, unless
// the key would pass maxCachedLookupRequest: then the request is answered
// uncached. A fill that finds the table's generation moved since (a feed
// created, whose advice rs.feeds lacks) is served but not cached.
func subscribe[S string | []byte](s *Server, rs *reportScratch, names []S) {
	rs.feedGen, rs.feeds = s.feedGen.Load(), rs.feeds[:0]
	n := len(repcache.FormatBinary) + len(core.SoftwareID{})
	for _, name := range names {
		n += 1 + len(name)
	}
	if len(names) > 0 {
		s.mu.Lock()
		for _, name := range names {
			if f := s.feeds[string(name)]; f != nil {
				rs.feeds = append(rs.feeds, f)
			}
		}
		s.mu.Unlock()
	}
	rs.feedKey, rs.keyed = rs.feedKey[:0], n <= maxCachedLookupRequest
	if rs.keyed {
		for _, name := range names {
			rs.feedKey = append(append(rs.feedKey, 0), name...)
		}
	}
}

const reportKeyScratch = 64 // a buffer this size on a handler's stack holds a usual report key

// key appends to dst the cache key of id's report under the request's
// feeds, order kept (it is the advice's order), or is nil: uncached.
func (rs *reportScratch) key(dst []byte, format string, id core.SoftwareID) []byte {
	if !rs.keyed {
		return nil
	}
	return append(append(append(dst, format...), id[:]...), rs.feedKey...)
}

// cachedReport returns one executable's report in the scope's format:
// the cache's bytes under key or, on a miss, the one fill of the single
// lookup and of the batch entry (DESIGN.md, Miss path), with the advice
// of the feeds subscribe resolved; a nil key skips the cache (subscribe).
// The report is assembled and encoded in the scope's scratch out of
// strings that alias the tree, and only the exact-size copy made here
// leaves it, for the cache and for every waiter on this fill.
func (s *Server) cachedReport(sc *scope, key []byte, meta core.SoftwareMeta, sw *wire.SoftwareView, lean bool) ([]byte, error) {
	cache := s.reports
	if key == nil {
		cache = nil // a nil cache probes nothing and stores nothing
	}
	if data, ok := cache.ProbeBytes(key); ok {
		return data, nil
	}
	return cache.Do(reportOwner(meta.ID), string(key), func() ([]byte, bool, error) {
		resp, err := s.buildLookupResponse(&sc.rep, meta, sw, lean)
		if err != nil {
			return nil, false, err
		}
		if sc.bin {
			sc.rep.enc = wire.AppendBinaryReport(sc.rep.enc[:0], resp)
		} else {
			sc.rep.enc = wire.AppendXML(sc.rep.enc[:0], resp)
		}
		// First-sight responses carry Known=false, which must flip to
		// true on the next lookup — never cache them. Lean brownout
		// reports are equally uncacheable: they must not outlive the
		// brownout. Nor may a report built without a feed created since
		// its request resolved its feeds.
		return bytes.Clone(sc.rep.enc), resp.Known && !lean && sc.rep.feedGen == s.feedGen.Load(), nil
	})
}

// leanReports reports whether cache misses should get lean reports.
// Brownout: at LevelCacheOnly and above (where failed or corrupt storage
// holds the level, see BrownoutLevel), cache hits still serve the full
// pre-encoded report (cheap), but misses get a lean report — score and
// vendor rating only — built without the comment and feed work, and
// never cached so a recovered server goes back to full reports
// immediately.
func (s *Server) leanReports() bool { return s.BrownoutLevel() >= admission.LevelCacheOnly }

// reportScratch is the memory a report passes through between the tree
// and the cache. A scope owns one and its next fill writes over all of
// it, so nothing in it, and nothing buildLookupResponse returns, may be
// kept past the fill (DESIGN.md, Request path, Miss path).
//
// A binary request is read into view in place: its fields are views of
// the scope's request buffer, valid until the scope is recycled, which a
// scope whose handler timed out never is.
type reportScratch struct {
	req      wire.LookupRequest     // an XML request, decoded here so that decoding it allocates no document
	view     wire.LookupView        // a binary lookup or batch, read in place
	feeds    []*ExpertFeed          // the request's feeds that exist (subscribe)
	feedGen  uint64                 // the feed table's generation they were resolved at
	feedKey  []byte                 // the report key's feed part
	keyed    bool                   // false: the feed list is too long to key, the request is answered uncached
	authored []repo.AuthoredComment // ReportState's comments: their strings alias the tree's records
	resp     wire.LookupResponse    // the report; its Comments and Advice are written over
	text     []byte                 // the identity, the behaviours and the times, rendered
	enc      []byte                 // the encoded report, which the cache keeps a copy of
}

// buildLookupResponse assembles the wire form of one report in rs, with
// the advice of the feeds subscribe resolved there; meta and sw are
// lookupReport's.
func (s *Server) buildLookupResponse(rs *reportScratch, meta core.SoftwareMeta, sw *wire.SoftwareView, lean bool) (*wire.LookupResponse, error) {
	rep, err := s.lookupReport(meta, sw, rs.feeds, lean, &rs.authored)
	if err != nil {
		return nil, err
	}
	// What the report shows as text and no record holds as text is
	// rendered into one buffer and becomes one string: each piece ends in
	// a NUL, which none contains, and next cuts them off in that order.
	text := append(hex.AppendEncode(rs.text[:0], meta.ID[:]), 0)
	text = append(rep.Score.Behaviors.Append(text), 0)
	for i := range rep.Comments {
		text = append(rep.Comments[i].At.AppendFormat(text, wire.TimeFormat), 0)
	}
	rs.text = text
	rest := string(text)
	next := func() (piece string) {
		piece, rest, _ = strings.Cut(rest, "\x00")
		return piece
	}
	resp := &rs.resp
	*resp = wire.LookupResponse{
		Known:       rep.Known,
		ID:          next(),
		Score:       rep.Score.Score,
		Votes:       rep.Score.Votes,
		Behaviors:   next(),
		Vendor:      rep.Vendor.Vendor,
		VendorScore: rep.Vendor.Score,
		VendorCount: rep.Vendor.SoftwareCount,
		Comments:    resp.Comments[:0],
		Advice:      resp.Advice[:0],
	}
	for i := range rep.Comments {
		c := &rep.Comments[i]
		resp.Comments = append(resp.Comments, wire.CommentInfo{
			ID:          c.ID,
			User:        s.DisplayName(c.UserID),
			Text:        c.Text,
			Positive:    c.Positive,
			Negative:    c.Negative,
			At:          next(),
			AuthorTrust: c.AuthorTrust,
		})
	}
	// Reliable users first (§2.1); ties keep submission order.
	slices.SortStableFunc(resp.Comments, func(a, b wire.CommentInfo) int {
		return cmp.Compare(b.AuthorTrust, a.AuthorTrust)
	})
	for _, fa := range rep.Advice {
		resp.Advice = append(resp.Advice, wire.AdviceInfo{
			Feed:      fa.Feed,
			Score:     fa.Advice.Score,
			Behaviors: fa.Advice.Behaviors.String(),
			Note:      fa.Advice.Note,
		})
	}
	return resp, nil
}

func (s *Server) handleVote(sc *scope, r *http.Request) {
	isBin := sc.bin
	if !isBin && isBinaryRequest(r) {
		sc.unsupportedMedia()
		return
	}
	if !sc.requirePost(r) {
		return
	}
	var req wire.VoteRequest
	body, err := sc.readBody(r)
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
		sc.fail(http.StatusBadRequest, badRequest(err))
		return
	}
	meta, err := metaFromWire(req.Software)
	if err != nil {
		sc.failErr(err)
		return
	}
	behaviors, err := core.ParseBehavior(req.Behaviors)
	if err != nil {
		sc.failErr(err)
		return
	}
	commentID, err := s.Vote(req.Session, meta, req.Score, behaviors, req.Comment)
	if err != nil {
		sc.failErr(err)
		return
	}
	if isBin {
		sc.send(wire.EncodeBinaryVoteAck(&wire.VoteResponse{CommentID: commentID}))
		return
	}
	sc.send(wire.AppendXML(nil, &wire.VoteResponse{CommentID: commentID}))
}

func (s *Server) handleRemark(sc *scope, r *http.Request) {
	if !sc.requirePost(r) {
		return
	}
	var req wire.RemarkRequest
	if !sc.decodeXML(r, &req) {
		return
	}
	if err := s.Remark(req.Session, req.CommentID, req.Positive); err != nil {
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.RemarkResponse{})
}

func (s *Server) handleVendor(sc *scope, r *http.Request) {
	if !sc.requirePost(r) {
		return
	}
	var req wire.VendorRequest
	if !sc.decodeXML(r, &req) {
		return
	}
	vs, known, err := s.VendorReport(req.Vendor)
	if err != nil {
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.VendorResponse{
		Vendor:        req.Vendor,
		Known:         known,
		Score:         vs.Score,
		SoftwareCount: vs.SoftwareCount,
	})
}

func (s *Server) handleStats(sc *scope, r *http.Request) {
	st, err := s.store.Stats()
	if err != nil {
		sc.failErr(err)
		return
	}
	writeXML(sc, wire.StatsResponse{
		Users:    st.Users,
		Software: st.Software,
		Ratings:  st.Ratings,
		Comments: st.Comments,
		Remarks:  st.Remarks,
	})
}
