package identity

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Activation tokens for the e-mail round trip of §3.2: "Each e-mail
// address used to sign up must be valid, since it is used for the
// confirmation and activation of the newly created account."

// ErrTokenInvalid is returned when an activation token is unknown,
// already used or expired.
var ErrTokenInvalid = errors.New("identity: invalid activation token")

// DefaultTokenTTL is how long an activation token stays valid.
const DefaultTokenTTL = 48 * time.Hour

// TokenIssuer mints and redeems one-shot activation tokens. It is safe
// for concurrent use.
type TokenIssuer struct {
	ttl time.Duration

	mu     sync.Mutex
	tokens map[string]tokenRecord
	// order holds the tokens in the order they were issued, which is
	// the order they expire in: every token lives ttl.
	order []string
}

type tokenRecord struct {
	username string
	expires  time.Time
}

// NewTokenIssuer creates an issuer; ttl <= 0 selects DefaultTokenTTL.
func NewTokenIssuer(ttl time.Duration) *TokenIssuer {
	if ttl <= 0 {
		ttl = DefaultTokenTTL
	}
	return &TokenIssuer{ttl: ttl, tokens: make(map[string]tokenRecord)}
}

// Issue mints a token binding the given username, to be delivered over
// the (simulated) e-mail channel, and drops the tokens that have expired
// unredeemed.
func (ti *TokenIssuer) Issue(username string, now time.Time) (string, error) {
	raw := make([]byte, 24)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("identity: token generation: %w", err)
	}
	tok := hex.EncodeToString(raw)
	ti.mu.Lock()
	defer ti.mu.Unlock()
	for len(ti.order) > 0 {
		if rec, ok := ti.tokens[ti.order[0]]; ok && !now.After(rec.expires) {
			break
		}
		delete(ti.tokens, ti.order[0])
		ti.order = ti.order[1:]
	}
	ti.tokens[tok] = tokenRecord{username: username, expires: now.Add(ti.ttl)}
	ti.order = append(ti.order, tok)
	return tok, nil
}

// Redeem consumes a token and returns the username it was issued for.
// Tokens are single-use and expire after the issuer's TTL.
func (ti *TokenIssuer) Redeem(token string, now time.Time) (string, error) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	rec, ok := ti.tokens[token]
	if !ok {
		return "", ErrTokenInvalid
	}
	delete(ti.tokens, token)
	if now.After(rec.expires) {
		return "", ErrTokenInvalid
	}
	return rec.username, nil
}

// constantTimeEqual compares two strings without leaking length-prefix
// timing; exported indirectly through token handling.
func constantTimeEqual(a, b string) bool {
	return subtle.ConstantTimeCompare([]byte(a), []byte(b)) == 1
}
