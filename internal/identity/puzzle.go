package identity

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
)

// Client puzzles — the "computational penalties through variable hash
// guessing" the paper proposes as future work (§5), after Aura's
// DOS-resistant authentication with client puzzles. The server issues a
// nonce and a difficulty k; the client must find a 64-bit counter x such
// that SHA-256(nonce || x) starts with k zero bits. Verification is one
// hash; solving costs the client ~2^k hashes on average, which throttles
// mass account creation even by fully automated attackers.

// ErrPuzzleFailed is returned when a puzzle solution does not verify.
var ErrPuzzleFailed = errors.New("identity: puzzle solution rejected")

// MaxPuzzleDifficulty bounds the accepted difficulty so a hostile server
// (or corrupted config) cannot demand an unsolvable puzzle.
const MaxPuzzleDifficulty = 40

// Puzzle is a hash-preimage client puzzle.
type Puzzle struct {
	// Nonce is the server-chosen random prefix, hex-encoded.
	Nonce string
	// Difficulty is the required number of leading zero bits.
	Difficulty int
}

// NewPuzzle mints a puzzle at the given difficulty.
func NewPuzzle(difficulty int) (Puzzle, error) {
	if difficulty < 0 || difficulty > MaxPuzzleDifficulty {
		return Puzzle{}, fmt.Errorf("identity: difficulty %d out of range [0, %d]", difficulty, MaxPuzzleDifficulty)
	}
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return Puzzle{}, err
	}
	return Puzzle{Nonce: hex.EncodeToString(raw), Difficulty: difficulty}, nil
}

func puzzleDigest(nonce string, x uint64) [sha256.Size]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], x)
	h := sha256.New()
	h.Write([]byte(nonce))
	h.Write(buf[:])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func leadingZeroBits(d [sha256.Size]byte) int {
	n := 0
	for _, b := range d {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n
}

// Solve brute-forces the puzzle and returns the counter and the number
// of hash evaluations spent. The hash count is the client's
// computational price, which experiment E6 sweeps.
func (p Puzzle) Solve() (solution uint64, hashes uint64) {
	for x := uint64(0); ; x++ {
		hashes++
		if leadingZeroBits(puzzleDigest(p.Nonce, x)) >= p.Difficulty {
			return x, hashes
		}
	}
}

// Verify checks a solution with a single hash evaluation.
func (p Puzzle) Verify(solution uint64) error {
	if p.Difficulty < 0 || p.Difficulty > MaxPuzzleDifficulty {
		return fmt.Errorf("identity: difficulty %d out of range", p.Difficulty)
	}
	if leadingZeroBits(puzzleDigest(p.Nonce, solution)) < p.Difficulty {
		return ErrPuzzleFailed
	}
	return nil
}
