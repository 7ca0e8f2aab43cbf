package resilience

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"softreputation/internal/vclock"
)

// PartitionNet is a topology-level partition injector: where
// FaultTransport faults one client's requests on a schedule,
// PartitionNet models the network between named nodes and lets an
// experiment cut, degrade, and heal individual links mid-run. Every
// node's outbound traffic goes through a Transport that resolves the
// destination node from the request URL and consults the link table,
// so one injector coherently partitions an entire deployment:
//
//	net := resilience.NewPartitionNet(clock)
//	net.AddNode("p", primaryURL)
//	net.AddNode("r1", replica1URL)
//	clientA := &http.Client{Transport: net.Transport("a", nil)}
//
//	net.Cut("a", "p")            // symmetric blackhole
//	net.LoseReplies("a", "p")    // requests ARRIVE, replies are lost
//	net.CutFor("a", "p", 10*time.Minute) // heals itself on the clock
//	net.HealAll()
//
// Cuts are directional under the hood — Cut installs both directions,
// LoseReplies only one — which is what asymmetric split-brain
// scenarios need: an acked write whose ack never came back.
//
// Timed cuts heal lazily against the injector's clock: with a virtual
// clock a ten-minute partition heals the instant the experiment
// advances past it, deterministically. A blackholed send fails at once.
type PartitionNet struct {
	clock vclock.Clock

	mu    sync.Mutex
	nodes []netNode
	cuts  map[linkKey]cut
}

// netNode maps a name to its base URL for destination resolution.
type netNode struct {
	name, base string
}

// linkKey identifies one direction of one link.
type linkKey struct {
	from, to string
}

// linkMode is what one direction of a link does to traffic.
type linkMode int

const (
	// linkOpen delivers traffic untouched.
	linkOpen linkMode = iota
	// linkBlackhole drops requests before they reach the destination.
	linkBlackhole
	// linkLoseReplies delivers the request — its side effects happen on
	// the destination — but drops the reply, so the sender sees a
	// connection failure for work that actually committed. This is the
	// partition mode that manufactures "acked on the old primary only"
	// ratings: the server acked, nobody heard.
	linkLoseReplies
)

// cut is one direction's installed fault.
type cut struct {
	mode linkMode
	// healAt self-heals the cut when the clock reaches it; zero means
	// the cut holds until HealAll.
	healAt time.Time
}

// NewPartitionNet builds an injector. A nil clock selects the system
// clock; simulations pass their virtual clock so timed cuts heal in
// virtual time.
func NewPartitionNet(clock vclock.Clock) *PartitionNet {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &PartitionNet{clock: clock, cuts: make(map[linkKey]cut)}
}

// AddNode registers a node and the base URL its inbound traffic is
// addressed to. Longest base match wins when one URL prefixes another.
func (n *PartitionNet) AddNode(name, baseURL string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes = append(n.nodes, netNode{name: name, base: strings.TrimSuffix(baseURL, "/")})
	sort.Slice(n.nodes, func(i, j int) bool {
		return len(n.nodes[i].base) > len(n.nodes[j].base)
	})
}

// resolve names the node a URL addresses, or "".
func (n *PartitionNet) resolve(url string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, nd := range n.nodes {
		if strings.HasPrefix(url, nd.base) {
			return nd.name
		}
	}
	return ""
}

func (n *PartitionNet) setCut(from, to string, mode linkMode, healAt time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cuts[linkKey{from, to}] = cut{mode: mode, healAt: healAt}
}

// Cut blackholes the link between a and b in both directions.
func (n *PartitionNet) Cut(a, b string) {
	n.setCut(a, b, linkBlackhole, time.Time{})
	n.setCut(b, a, linkBlackhole, time.Time{})
}

// LoseReplies delivers from->to requests but drops every reply.
func (n *PartitionNet) LoseReplies(from, to string) {
	n.setCut(from, to, linkLoseReplies, time.Time{})
}

// CutFor blackholes a<->b, self-healing after d on the injector's
// clock. The heal is lazy: it takes effect on the first send at or
// past the deadline, which with a virtual clock means the instant the
// experiment advances past it.
func (n *PartitionNet) CutFor(a, b string, d time.Duration) {
	healAt := n.clock.Now().Add(d)
	n.setCut(a, b, linkBlackhole, healAt)
	n.setCut(b, a, linkBlackhole, healAt)
}

// HealAll reopens every link.
func (n *PartitionNet) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cuts = make(map[linkKey]cut)
}

// linkMode reads one direction's current mode, expiring timed cuts.
func (n *PartitionNet) linkMode(from, to string) linkMode {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	key := linkKey{from, to}
	c, ok := n.cuts[key]
	if !ok {
		return linkOpen
	}
	if !c.healAt.IsZero() && !now.Before(c.healAt) {
		delete(n.cuts, key)
		return linkOpen
	}
	return c.mode
}

// Transport returns the RoundTripper carrying the named node's
// outbound traffic. base nil selects http.DefaultTransport. Requests
// to URLs that resolve to no registered node pass through untouched.
func (n *PartitionNet) Transport(from string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &partitionTransport{net: n, from: from, base: base}
}

// partitionTransport is one node's outbound edge into the net.
type partitionTransport struct {
	net  *PartitionNet
	from string
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	to := t.net.resolve(req.URL.String())
	if to == "" {
		return t.base.RoundTrip(req)
	}
	switch t.net.linkMode(t.from, to) {
	case linkBlackhole:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, &faultError{mode: FaultPartition}
	case linkLoseReplies:
		// The request goes through — whatever it does on the far side
		// happens — and then the reply evaporates.
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, &faultError{mode: FaultPartition}
	default:
		return t.base.RoundTrip(req)
	}
}
