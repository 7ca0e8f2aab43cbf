package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"softreputation/internal/core"
	"softreputation/internal/identity"
	"softreputation/internal/repo"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// Domain operations. The HTTP layer in handlers.go is a thin XML
// mapping over these methods; simulations call them directly when they
// do not need the network in the loop.

// Sentinel errors for operation failures beyond the repo constraints.
var (
	// ErrCaptchaRequired is returned when registration lacks a valid
	// CAPTCHA solution and the server requires one.
	ErrCaptchaRequired = errors.New("server: captcha solution required")
	// ErrPuzzleRequired is returned when registration lacks a valid
	// client-puzzle solution and the server requires one.
	ErrPuzzleRequired = errors.New("server: puzzle solution required")
	// ErrBadCredentials is returned on login failure. It deliberately
	// does not distinguish unknown users from wrong passwords.
	ErrBadCredentials = errors.New("server: bad credentials")
	// ErrNotActivated is returned when logging in before the e-mail
	// round trip completed.
	ErrNotActivated = errors.New("server: account not activated")
	// ErrBadSession is returned for unknown or expired session tokens.
	ErrBadSession = errors.New("server: invalid session")
	// ErrVoteBudget is returned when the per-account daily vote budget
	// is exhausted.
	ErrVoteBudget = errors.New("server: daily vote budget exhausted")
	// ErrSignupThrottled is returned when one source address exceeds
	// its daily registration budget (§5).
	ErrSignupThrottled = errors.New("server: too many signups from this address")
)

// Challenge is the anti-automation material for one registration.
type Challenge struct {
	// Captcha is the CAPTCHA to solve (human cost).
	Captcha identity.Challenge
	// Puzzle is the client puzzle to solve (computational cost); its
	// Difficulty is 0 when puzzles are disabled.
	Puzzle identity.Puzzle
}

// IssueChallenge mints the registration challenge. The puzzle nonce is
// recorded server-side and is single-use.
func (s *Server) IssueChallenge() (Challenge, error) {
	var ch Challenge
	c, err := s.captcha.Issue()
	if err != nil {
		return ch, fmt.Errorf("server: issue captcha: %w", err)
	}
	ch.Captcha = c
	if s.cfg.PuzzleDifficulty > 0 {
		p, err := identity.NewPuzzle(s.cfg.PuzzleDifficulty)
		if err != nil {
			return ch, fmt.Errorf("server: issue puzzle: %w", err)
		}
		ch.Puzzle = p
		s.mu.Lock()
		s.puzzles[p.Nonce] = p.Difficulty
		s.mu.Unlock()
	}
	return ch, nil
}

// CaptchaGate exposes the CAPTCHA gate so (simulated) humans can solve
// challenges; solving charges their cost meter.
func (s *Server) CaptchaGate() *identity.CaptchaGate { return s.captcha }

// RequiresCaptcha reports whether registration demands a CAPTCHA
// solution. Clients use it to decide whether to bother a human.
func (s *Server) RequiresCaptcha() bool { return s.cfg.RequireCaptcha }

// RegisterParams carries one registration attempt.
type RegisterParams struct {
	Username        string
	Password        string
	Email           string
	CaptchaNonce    string
	CaptchaSolution string
	PuzzleNonce     string
	PuzzleSolution  uint64
}

// Register creates a not-yet-activated account and mails the activation
// token. It enforces the CAPTCHA (when required), the client puzzle
// (when enabled), username uniqueness and the one-account-per-address
// rule. Registrations arriving over the network go through RegisterFrom
// so the per-IP throttle applies.
func (s *Server) Register(p RegisterParams) error {
	return s.RegisterFrom("", p)
}

// RegisterFrom is Register with the caller's source address, enforcing
// the §5 per-IP signup throttle when configured. The address is hashed
// before use and held in memory only — it never reaches the database.
func (s *Server) RegisterFrom(remoteIP string, p RegisterParams) error {
	if err := s.allowSignup(remoteIP); err != nil {
		return err
	}
	return s.register(p)
}

// allowSignup charges one signup against the source address's daily
// budget; an empty address (in-process callers) is exempt.
func (s *Server) allowSignup(remoteIP string) error {
	if s.cfg.MaxSignupsPerIPPerDay <= 0 || remoteIP == "" {
		return nil
	}
	sum := sha256.Sum256([]byte("signup-ip|" + s.cfg.EmailPepper + "|" + remoteIP))
	key := hex.EncodeToString(sum[:8])
	day := vclock.DayIndex(vclock.Epoch, s.clock.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.signupIPs[key]
	if d.day != day {
		d = voteDay{day: day}
	}
	if d.votes >= s.cfg.MaxSignupsPerIPPerDay {
		return ErrSignupThrottled
	}
	d.votes++
	s.signupIPs[key] = d
	return nil
}

func (s *Server) register(p RegisterParams) error {
	if p.Username == "" || p.Password == "" {
		return fmt.Errorf("server: username and password are required")
	}
	if s.cfg.RequireCaptcha {
		if err := s.captcha.Verify(identity.Challenge{Nonce: p.CaptchaNonce}, p.CaptchaSolution); err != nil {
			return ErrCaptchaRequired
		}
	}
	if s.cfg.PuzzleDifficulty > 0 {
		s.mu.Lock()
		difficulty, ok := s.puzzles[p.PuzzleNonce]
		if ok {
			delete(s.puzzles, p.PuzzleNonce) // single use
		}
		s.mu.Unlock()
		if !ok {
			return ErrPuzzleRequired
		}
		puzzle := identity.Puzzle{Nonce: p.PuzzleNonce, Difficulty: difficulty}
		if err := puzzle.Verify(p.PuzzleSolution); err != nil {
			return ErrPuzzleRequired
		}
	}

	email, err := identity.NormalizeEmail(p.Email)
	if err != nil {
		return err
	}
	emailHash, err := s.emailHasher.Hash(email)
	if err != nil {
		return err
	}
	passHash, err := identity.HashPassword(p.Password)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}

	now := s.clock.Now()
	u := repo.User{
		Username:     p.Username,
		PasswordHash: passHash,
		EmailHash:    emailHash,
		SignedUpAt:   now,
		Trust:        core.NewTrust(now),
	}
	if err := s.store.CreateUser(u); err != nil {
		return err
	}
	token, err := s.tokens.Issue(p.Username, now)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mailer.SendActivation(email, p.Username, token)
	return nil
}

// Activate redeems an activation token and marks the account active.
func (s *Server) Activate(token string) (string, error) {
	username, err := s.tokens.Redeem(token, s.clock.Now())
	if err != nil {
		return "", err
	}
	u, found, err := s.store.GetUser(username)
	if err != nil {
		return "", err
	}
	if !found {
		return "", repo.ErrUserNotFound
	}
	u.Activated = true
	if err := s.store.UpdateUser(u); err != nil {
		return "", err
	}
	return username, nil
}

// Login verifies credentials on an activated account and opens a
// session, updating the last-login timestamp (one of the only two
// timestamps the schema keeps).
func (s *Server) Login(username, password string) (string, error) {
	u, found, err := s.store.GetUser(username)
	if err != nil {
		return "", err
	}
	if !found {
		return "", ErrBadCredentials
	}
	if err := identity.VerifyPassword(u.PasswordHash, password); err != nil {
		return "", ErrBadCredentials
	}
	if !u.Activated {
		return "", ErrNotActivated
	}
	u.LastLoginAt = s.clock.Now()
	if err := s.store.UpdateUser(u); err != nil {
		return "", err
	}

	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("server: session token: %w", err)
	}
	token := hex.EncodeToString(raw)
	s.mu.Lock()
	s.sessions[token] = username
	s.mu.Unlock()
	return token, nil
}

// SessionUser resolves a session token to its username.
func (s *Server) SessionUser(token string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	username, ok := s.sessions[token]
	if !ok {
		return "", ErrBadSession
	}
	return username, nil
}

// Logout discards a session token.
func (s *Server) Logout(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, token)
}

// Report is the server's answer to a lookup: everything the client
// shows at the execution prompt.
type Report struct {
	// Known reports whether the executable had been seen before this
	// lookup.
	Known bool
	// Score is the published aggregated score with its vote count and
	// behaviour consensus.
	Score core.SoftwareScore
	// Vendor is the executable's vendor and its derived rating, when
	// the vendor is known.
	Vendor core.VendorScore
	// Comments are the visible comments on this executable in submission
	// order, each with its author's trust factor.
	Comments []repo.AuthoredComment
	// Advice holds subscribed expert feeds' entries for the executable
	// (§4.2), keyed by feed in submission order.
	Advice []FeedAdvice
}

// FeedAdvice pairs an expert feed's name with its advice.
type FeedAdvice struct {
	// Feed is the publishing feed's name.
	Feed string
	// Advice is the feed's entry.
	Advice ExpertAdvice
}

// Lookup returns the report for an executable, registering its metadata
// on first sight so later votes have a record to attach to.
func (s *Server) Lookup(meta core.SoftwareMeta) (Report, error) {
	return s.LookupWithFeeds(meta, nil)
}

// LookupWithFeeds is Lookup plus the §4.2 subscription mechanism: for
// each named expert feed, its advice about this executable (if any) is
// attached to the report. Unknown feed names are simply empty.
func (s *Server) LookupWithFeeds(meta core.SoftwareMeta, feeds []string) (Report, error) {
	var rs reportScratch
	subscribe(s, &rs, feeds)
	return s.lookupReport(meta, nil, rs.feeds, false, nil)
}

// lookupReport is the only place a report's stored state is read, and it
// reads all of it — existence, score, vendor score, visible comments and
// their authors' trust — in one transaction (repo.Store.ReportState), so
// a report is one snapshot of the tree on a primary and a replica alike
// (scratch is ReportState's: with it, the comments are borrowed). feeds
// are the subscribed feeds that exist (subscribe). A binary request
// read in place passes its entry as sw and meta with the identity alone:
// the vendor is made a string here, and the rest of the metadata only on
// a genuine first sight, for the record.
func (s *Server) lookupReport(meta core.SoftwareMeta, sw *wire.SoftwareView, feeds []*ExpertFeed, lean bool, scratch *[]repo.AuthoredComment) (Report, error) {
	if sw != nil {
		meta.Vendor = string(sw.Vendor)
	}
	vendor := ""
	if meta.VendorKnown() {
		vendor = meta.Vendor
	}
	st, err := s.store.ReportState(meta.ID, vendor, !lean, scratch)
	if err != nil {
		return Report{}, err
	}
	if !st.Known {
		// Only a genuine first sight writes (the upsert re-checks under
		// the write lock). A node whose store refuses writes — a replica,
		// a fenced or storage-degraded primary — serves the lookup from
		// the tree it has and cannot record the sighting; the primary
		// registers the executable when it next sees it.
		if sw != nil {
			meta.FileName, meta.FileSize, meta.Version = string(sw.FileName), sw.FileSize, string(sw.Version)
		}
		_, err := s.store.UpsertSoftware(meta, s.clock.Now())
		if err != nil && refusalFor(false, err, true, false).status == 0 {
			return Report{}, err
		}
	}
	rep := Report{Known: st.Known, Score: st.Score, Vendor: st.Vendor, Comments: st.Comments}
	if lean {
		return rep, nil
	}
	for _, feed := range feeds {
		if advice, ok := feed.Advice(meta.ID); ok {
			rep.Advice = append(rep.Advice, FeedAdvice{Feed: feed.Name, Advice: advice})
		}
	}
	return rep, nil
}

// Vote casts the session user's single vote on an executable.
func (s *Server) Vote(session string, meta core.SoftwareMeta, score int, behaviors core.Behavior, comment string) (uint64, error) {
	username, err := s.SessionUser(session)
	if err != nil {
		return 0, err
	}
	now := s.clock.Now()
	if !s.spendVote(username, now, 1) {
		return 0, ErrVoteBudget
	}
	// One transaction: a comment under moderation is stored hidden, so
	// no lookup, and no crash, finds it published first.
	cid, err := s.store.CastVote(repo.Vote{
		Rating:      core.Rating{UserID: username, Software: meta.ID, Score: score, Behaviors: behaviors, At: now},
		Meta:        &meta,
		Comment:     comment,
		HideComment: s.cfg.ModerateComments,
	})
	if err != nil {
		// A vote the store refused is not one of the day's votes.
		s.spendVote(username, now, -1)
		return 0, err
	}
	// The vote (and its comment) must show up in the very next lookup.
	s.reports.Invalidate(reportOwner(meta.ID))
	return cid, nil
}

// PendingComments lists the moderation queue.
func (s *Server) PendingComments() ([]core.Comment, error) {
	return s.store.PendingComments()
}

// ApproveComment releases a held comment for publication.
func (s *Server) ApproveComment(id uint64) error {
	return s.moderateComment(id, false)
}

// RejectComment keeps a held comment permanently hidden. (The record is
// retained: the vote behind it still counts, only the text stays
// unpublished.)
func (s *Server) RejectComment(id uint64) error {
	return s.moderateComment(id, true)
}

func (s *Server) moderateComment(id uint64, hidden bool) error {
	if err := s.store.SetCommentHidden(id, hidden); err != nil {
		return err
	}
	// The moderation decision changes which comments a report shows.
	if c, found, err := s.store.GetComment(id); err == nil && found {
		s.reports.Invalidate(reportOwner(c.Software))
	} else {
		s.reports.InvalidateAll()
	}
	return nil
}

// Remark records the session user's judgement of a comment and adjusts
// the comment author's trust factor accordingly (§3.2).
func (s *Server) Remark(session string, commentID uint64, positive bool) error {
	username, err := s.SessionUser(session)
	if err != nil {
		return err
	}
	now := s.clock.Now()
	author, err := s.store.AddRemark(core.Remark{
		UserID:    username,
		CommentID: commentID,
		Positive:  positive,
		At:        now,
	})
	if err != nil {
		return err
	}
	u, found, err := s.store.GetUser(author)
	if err != nil || !found {
		return fmt.Errorf("server: remark author %q: %w", author, err)
	}
	u.Trust = u.Trust.ApplyRemark(positive, now)
	if err := s.store.UpdateUser(u); err != nil {
		return err
	}
	// The remark moved the comment's counters and the author's trust:
	// the commented report changed, and so did the comment ordering on
	// every report where this author appears — their rated software
	// covers all of them (comments attach to votes).
	if c, found, err := s.store.GetComment(commentID); err == nil && found {
		s.reports.Invalidate(reportOwner(c.Software))
	} else {
		s.reports.InvalidateAll()
		return nil
	}
	if ids, err := s.store.SoftwareRatedBy(author); err == nil {
		for _, id := range ids {
			s.reports.Invalidate(reportOwner(id))
		}
	} else {
		s.reports.InvalidateAll()
	}
	return nil
}

// VendorReport returns a vendor's derived rating.
func (s *Server) VendorReport(vendor string) (core.VendorScore, bool, error) {
	return s.store.GetVendorScore(vendor)
}

// UserTrust returns a user's current trust factor, for admin tooling
// and experiments.
func (s *Server) UserTrust(username string) (float64, error) {
	u, found, err := s.store.GetUser(username)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, repo.ErrUserNotFound
	}
	return u.Trust.Value, nil
}
