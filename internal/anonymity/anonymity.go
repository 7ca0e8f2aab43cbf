// Package anonymity is the Tor stand-in of Section 2.2: "Protection of
// users' anonymity could be established by utilizing distributed
// anonymity services, such as Tor, for all communication between the
// client and the server." It implements an in-process onion-routing mix
// network: clients build multi-hop circuits with a per-hop symmetric
// key, requests are wrapped in layered AES-CTR encryption, each relay
// peels one layer and learns only its neighbours, and the exit performs
// the actual server call. The server therefore never observes which
// client issued a lookup — only the exit relay.
package anonymity

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"
)

var (
	// ErrNoCircuit is returned when a relay receives traffic for an
	// unknown circuit.
	ErrNoCircuit = errors.New("anonymity: unknown circuit")
	// ErrTooShort is returned for ciphertexts shorter than the nonce.
	ErrTooShort = errors.New("anonymity: ciphertext too short")
	// ErrNotEnoughRelays is returned when a circuit requests more hops
	// than the network has relays.
	ErrNotEnoughRelays = errors.New("anonymity: not enough relays")
)

const keySize = 32 // AES-256

// seal encrypts plaintext under key with a fresh random nonce.
func seal(key, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, aes.BlockSize+len(plaintext))
	if _, err := rand.Read(out[:aes.BlockSize]); err != nil {
		return nil, err
	}
	cipher.NewCTR(block, out[:aes.BlockSize]).XORKeyStream(out[aes.BlockSize:], plaintext)
	return out, nil
}

// open decrypts a ciphertext produced by seal.
func open(key, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < aes.BlockSize {
		return nil, ErrTooShort
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(ciphertext)-aes.BlockSize)
	cipher.NewCTR(block, ciphertext[:aes.BlockSize]).XORKeyStream(out, ciphertext[aes.BlockSize:])
	return out, nil
}

// ExitFunc performs the final request at the exit of a circuit and
// returns the response bytes.
type ExitFunc func(request []byte) ([]byte, error)

// Relay is one mix node. It learns, per circuit, only its symmetric key
// and its successor; it records who handed it traffic: the identities
// this vantage point could attribute traffic to.
type Relay struct {
	// Name identifies the relay.
	Name string

	mu       sync.Mutex
	circuits map[uint64]*relayCircuit
	observed map[string]int // previous-hop name -> message count
}

type relayCircuit struct {
	key  []byte
	next *Relay
	exit ExitFunc
}

// NewRelay creates a relay.
func NewRelay(name string) *Relay {
	return &Relay{
		Name:     name,
		circuits: make(map[uint64]*relayCircuit),
		observed: make(map[string]int),
	}
}

// extend installs circuit state on the relay; the real protocol does
// this with a telescoping handshake, which the simulation abstracts to
// key delivery.
func (r *Relay) extend(id uint64, key []byte, next *Relay, exit ExitFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.circuits[id] = &relayCircuit{key: key, next: next, exit: exit}
}

// handle peels one onion layer, forwards inward, and re-wraps the
// response on the way out.
func (r *Relay) handle(id uint64, from string, data []byte) ([]byte, error) {
	r.mu.Lock()
	c, ok := r.circuits[id]
	r.observed[from]++
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d at %s", ErrNoCircuit, id, r.Name)
	}
	inner, err := open(c.key, data)
	if err != nil {
		return nil, fmt.Errorf("anonymity: relay %s: %w", r.Name, err)
	}
	var resp []byte
	if c.next != nil {
		resp, err = c.next.handle(id, r.Name, inner)
	} else {
		resp, err = c.exit(inner)
	}
	if err != nil {
		return nil, err
	}
	return seal(c.key, resp)
}

// Network is a set of relays with a per-hop latency model.
type Network struct {
	// PerHopLatency is the simulated one-way latency each hop adds.
	PerHopLatency time.Duration

	mu     sync.Mutex
	relays []*Relay
	nextID uint64
}

// NewNetwork creates a network with n relays named relay-0 … relay-n-1.
func NewNetwork(n int, perHop time.Duration) *Network {
	net := &Network{PerHopLatency: perHop}
	for i := 0; i < n; i++ {
		net.relays = append(net.relays, NewRelay(fmt.Sprintf("relay-%d", i)))
	}
	return net
}

// Circuit is a client's established path through the network.
type Circuit struct {
	id    uint64
	hops  []*Relay
	keys  [][]byte
	net   *Network
	owner string

	mu         sync.Mutex
	roundTrips int
	simLatency time.Duration
}

// BuildCircuit establishes a circuit through the first `hops` relays
// chosen round-robin from the network (deterministic; path selection
// strategy is not what the experiments measure). The exit function is
// what the final relay invokes — typically the reputation server call.
func (n *Network) BuildCircuit(owner string, hops int, exit ExitFunc) (*Circuit, error) {
	n.mu.Lock()
	if hops <= 0 || hops > len(n.relays) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: want %d of %d", ErrNotEnoughRelays, hops, len(n.relays))
	}
	n.nextID++
	id := n.nextID
	path := make([]*Relay, hops)
	start := int(id) % len(n.relays)
	for i := 0; i < hops; i++ {
		path[i] = n.relays[(start+i)%len(n.relays)]
	}
	n.mu.Unlock()

	c := &Circuit{id: id, hops: path, net: n, owner: owner}
	for i, relay := range path {
		key := make([]byte, keySize)
		if _, err := rand.Read(key); err != nil {
			return nil, err
		}
		c.keys = append(c.keys, key)
		var next *Relay
		var exitFn ExitFunc
		if i+1 < hops {
			next = path[i+1]
		} else {
			exitFn = exit
		}
		relay.extend(id, key, next, exitFn)
	}
	return c, nil
}

// RoundTrip sends a request through the circuit and returns the
// response. The request is wrapped in one encryption layer per hop;
// each relay peels one. Simulated latency (2 × hops × per-hop) is
// accumulated on the circuit rather than slept.
func (c *Circuit) RoundTrip(request []byte) ([]byte, error) {
	// Wrap inside-out: the innermost layer is for the exit relay.
	data := append([]byte(nil), request...)
	for i := len(c.keys) - 1; i >= 0; i-- {
		var err error
		data, err = seal(c.keys[i], data)
		if err != nil {
			return nil, err
		}
	}
	resp, err := c.hops[0].handle(c.id, c.owner, data)
	if err != nil {
		return nil, err
	}
	// Unwrap outside-in: each relay added its layer on the way back.
	for i := 0; i < len(c.keys); i++ {
		resp, err = open(c.keys[i], resp)
		if err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.roundTrips++
	c.simLatency += 2 * time.Duration(len(c.hops)) * c.net.PerHopLatency
	c.mu.Unlock()
	return resp, nil
}

// Stats returns the circuit's round-trip count and accumulated
// simulated latency.
func (c *Circuit) Stats() (roundTrips int, simLatency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrips, c.simLatency
}
