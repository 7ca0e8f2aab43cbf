// Package attack implements the adversaries of Section 2.1 against a
// running reputation server: Sybil account factories that pay (or fail
// to pay) the registration costs, ballot-stuffing campaigns that push a
// target's score up or down, and polymorphic distributors that re-hash
// every download to evade file-keyed reputation (§3.3).
//
// The package exists so the defence experiments measure real code paths:
// every attack goes through the same registration and voting machinery
// as honest users, and succeeds or fails on the server's actual checks.
package attack

import (
	"errors"
	"fmt"
	"math/rand"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/identity"
	"softreputation/internal/repo"
	"softreputation/internal/server"
)

// Sybil is an attacker minting accounts on the reputation server. It
// records what the attack cost: human work units for CAPTCHAs and hash
// evaluations for client puzzles.
type Sybil struct {
	srv    *server.Server
	prefix string

	// Meter accumulates the human cost (CAPTCHA solves) the attacker
	// had to pay.
	Meter identity.CostMeter
	// PuzzleHashes accumulates the computational cost (hash
	// evaluations) spent on client puzzles.
	PuzzleHashes uint64
	// Sessions are the logged-in sessions of successfully created
	// accounts.
	Sessions []string

	created int
	mailbox int
}

// NewSybil creates an attacker against the given server. The prefix
// namespaces its usernames and addresses.
func NewSybil(srv *server.Server, prefix string) *Sybil {
	return &Sybil{srv: srv, prefix: prefix}
}

// CreateAccounts attempts to register, activate and log in n accounts.
// With uniqueEmails the attacker supplies a fresh address per account
// (they control a mail domain); without it every signup reuses one
// address, which the e-mail-hash uniqueness rule (§2.2) blocks after
// the first. The attacker solves every challenge the server poses,
// paying the corresponding costs. It returns how many accounts were
// created by this call.
func (a *Sybil) CreateAccounts(n int, uniqueEmails bool) (int, error) {
	mailer, ok := a.srv.Mailer().(*server.MemoryMailer)
	if !ok {
		return 0, errors.New("attack: server mailer is not readable; cannot activate")
	}
	created := 0
	for i := 0; i < n; i++ {
		username := fmt.Sprintf("%s-bot-%04d", a.prefix, a.created+1)
		email := fmt.Sprintf("%s-shared@evil.example", a.prefix)
		if uniqueEmails {
			a.mailbox++
			email = fmt.Sprintf("%s-box-%04d@evil.example", a.prefix, a.mailbox)
		}

		ch, err := a.srv.IssueChallenge()
		if err != nil {
			return created, fmt.Errorf("attack: challenge: %w", err)
		}
		params := server.RegisterParams{
			Username: username,
			Password: "sybil-pw",
			Email:    email,
		}
		// Pay only the costs the server actually demands: a CAPTCHA
		// needs a human in the loop, a puzzle burns CPU.
		if a.srv.RequiresCaptcha() {
			params.CaptchaNonce = ch.Captcha.Nonce
			params.CaptchaSolution = a.srv.CaptchaGate().Solve(ch.Captcha, &a.Meter)
		}
		if ch.Puzzle.Difficulty > 0 {
			sol, hashes := ch.Puzzle.Solve()
			a.PuzzleHashes += hashes
			params.PuzzleNonce = ch.Puzzle.Nonce
			params.PuzzleSolution = sol
		}

		if err := a.srv.Register(params); err != nil {
			if errors.Is(err, repo.ErrEmailTaken) || errors.Is(err, repo.ErrUserExists) {
				continue // blocked by the uniqueness rules; try no further with this address
			}
			return created, fmt.Errorf("attack: register: %w", err)
		}
		mail, ok := mailer.Read(email)
		if !ok {
			continue
		}
		if _, err := a.srv.Activate(mail.Token); err != nil {
			continue
		}
		session, err := a.srv.Login(username, "sybil-pw")
		if err != nil {
			continue
		}
		a.Sessions = append(a.Sessions, session)
		a.created++
		created++
	}
	return created, nil
}

// StuffBallots has every attacker account vote the given score on the
// target. It returns how many votes the server accepted and rejected;
// rejections come from the one-vote rule and any daily vote budget.
func (a *Sybil) StuffBallots(meta core.SoftwareMeta, score int) (accepted, rejected int) {
	for _, session := range a.Sessions {
		if _, err := a.srv.Vote(session, meta, score, 0, ""); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	return accepted, rejected
}

// Promote ballot-stuffs the maximum score onto the attacker's own
// product.
func (a *Sybil) Promote(meta core.SoftwareMeta) (accepted, rejected int) {
	return a.StuffBallots(meta, core.ScoreMax)
}

// PolymorphicDistributor models the §3.3 evasive vendor: every download
// of its product is a slightly mutated binary with a fresh content hash
// but identical metadata and behaviour.
type PolymorphicDistributor struct {
	current *hostsim.Executable
	rng     *rand.Rand
}

// NewPolymorphicDistributor wraps a base executable.
func NewPolymorphicDistributor(base *hostsim.Executable, seed int64) *PolymorphicDistributor {
	return &PolymorphicDistributor{current: base, rng: rand.New(rand.NewSource(seed))}
}

// NextDownload returns a fresh mutant, never repeating an identity.
func (d *PolymorphicDistributor) NextDownload() *hostsim.Executable {
	d.current = d.current.Mutate(d.rng)
	return d.current
}
