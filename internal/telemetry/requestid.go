package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	mrand "math/rand"
	"sync"
	"time"
)

// Request IDs tie one logical request's appearances together across
// hops: the client stamps one ID on a lookup, every retry and failover
// attempt of that lookup carries the same ID, the server echoes it
// back and records it in its trace, and a replica redirect hands it to
// the primary unchanged. They are identifiers, not secrets — crypto
// randomness is used only to avoid coordination, with a seeded
// fallback if the system source ever fails.

// RequestIDBytes is the entropy per ID; the hex form is twice this.
const RequestIDBytes = 8

var fallbackMu sync.Mutex
var fallbackRNG *mrand.Rand

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [RequestIDBytes]byte
	if _, err := rand.Read(b[:]); err != nil {
		fallbackMu.Lock()
		if fallbackRNG == nil {
			fallbackRNG = mrand.New(mrand.NewSource(time.Now().UnixNano()))
		}
		for i := range b {
			b[i] = byte(fallbackRNG.Intn(256))
		}
		fallbackMu.Unlock()
	}
	var id [2 * RequestIDBytes]byte // on the stack: the string is the one allocation
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// maxRequestIDLen bounds accepted inbound IDs: long enough for any
// reasonable upstream tracing scheme, short enough that a hostile
// header cannot bloat logs or the trace ring.
const maxRequestIDLen = 64

// ValidRequestID reports whether an inbound header value is safe to
// adopt: 1..64 chars drawn from [0-9A-Za-z._-]. Anything else (spaces,
// quotes, control bytes — log-injection material) is discarded and the
// server mints its own ID.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}
