package resilience

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"softreputation/internal/vclock"
)

// PartitionNet models the network between named nodes and lets an
// experiment cut, degrade, and heal individual links mid-run. Every
// node's outbound traffic goes through a Transport that resolves the
// destination node from the request URL and consults the link table,
// so one injector coherently faults an entire deployment:
//
//	net := resilience.NewPartitionNet(clock)
//	net.AddNode("p", primaryURL)
//	net.AddNode("r1", replica1URL)
//	clientA := &http.Client{Transport: net.Transport("a", nil)}
//
//	net.Cut("a", "p")            // symmetric blackhole
//	net.LoseReplies("a", "p")    // requests ARRIVE, replies are lost
//	net.CutFor("a", "p", 10*time.Minute) // heals itself on the clock
//	net.Degrade("a", "p", resilience.Fault{Latency: time.Second, EveryN: 2})
//	net.HealAll()
//
// Cuts are directional under the hood — Cut installs both directions,
// LoseReplies and Degrade only one — which is what asymmetric
// split-brain scenarios need: an acked write whose ack never came back.
//
// Timed cuts heal lazily against the injector's clock: with a virtual
// clock a ten-minute partition heals the instant the experiment
// advances past it, and a degraded link's latency advances simulated
// time, so a two-hour outage replays in microseconds and identically on
// every run. A blackholed send fails at once, after any latency.
type PartitionNet struct {
	clock vclock.Clock

	mu    sync.Mutex
	nodes []netNode
	cuts  map[linkKey]*cut
}

// netNode maps a name to the host and path prefix its inbound traffic
// is addressed to.
type netNode struct {
	name, host, path string
}

// linkKey identifies one direction of one link.
type linkKey struct {
	from, to string
}

// linkMode is what one direction of a link does to a faulted send.
type linkMode int

const (
	// linkBlackhole drops requests before they reach the destination.
	linkBlackhole linkMode = iota
	// linkLoseReplies delivers the request — its side effects happen on
	// the destination — but drops the reply, so the sender sees a
	// connection failure for work that actually committed. This is the
	// partition mode that manufactures "acked on the old primary only"
	// ratings: the server acked, nobody heard.
	linkLoseReplies
	// linkUnavailable answers 503 with a Retry-After hint without
	// reaching the destination — an overloaded, load-shedding server.
	linkUnavailable
)

// Fault degrades one direction of a link (Degrade): every send waits
// Latency on the net's clock, and then the 1st, EveryN+1th, … sends are
// faulted while the rest pass. A faulted send is answered 503 with
// RetryAfter as its Retry-After when RetryAfter is set, and blackholed
// otherwise.
type Fault struct {
	// Latency is spent before every send, faulted or not; for a
	// blackhole it models the connect timeout.
	Latency time.Duration
	// EveryN faults every Nth send; 0 or 1 faults all of them.
	EveryN int
	// RetryAfter, when positive, turns the fault into a 503 carrying it
	// in whole seconds (at least one).
	RetryAfter time.Duration
}

// cut is one direction's installed fault.
type cut struct {
	Fault
	mode linkMode
	// healAt self-heals the cut when the clock reaches it; zero means
	// the cut holds until HealAll.
	healAt time.Time
	// sends counts the sends seen since the cut was installed, for
	// EveryN.
	sends int
}

// NewPartitionNet builds an injector. A nil clock selects the system
// clock; simulations pass their virtual clock so timed cuts heal and
// latency passes in virtual time.
func NewPartitionNet(clock vclock.Clock) *PartitionNet {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &PartitionNet{clock: clock, cuts: make(map[linkKey]*cut)}
}

// AddNode registers a node and the base URL its inbound traffic is
// addressed to. A request belongs to the node whose base has its exact
// host and the longest path prefixing its own.
func (n *PartitionNet) AddNode(name, baseURL string) {
	u, err := url.Parse(baseURL)
	if err != nil {
		panic("resilience: AddNode: " + err.Error())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes = append(n.nodes, netNode{name: name, host: u.Host, path: strings.TrimSuffix(u.Path, "/")})
}

// resolve names the node a URL addresses, or "". The caller holds mu.
func (n *PartitionNet) resolve(u *url.URL) string {
	name, longest := "", -1
	for _, nd := range n.nodes {
		under := u.Path == nd.path || strings.HasPrefix(u.Path, nd.path+"/")
		if nd.host == u.Host && under && len(nd.path) > longest {
			name, longest = nd.name, len(nd.path)
		}
	}
	return name
}

func (n *PartitionNet) setCut(from, to string, c cut) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cuts[linkKey{from, to}] = &c
}

// Cut blackholes the link between a and b in both directions.
func (n *PartitionNet) Cut(a, b string) {
	n.setCut(a, b, cut{mode: linkBlackhole})
	n.setCut(b, a, cut{mode: linkBlackhole})
}

// LoseReplies delivers from->to requests but drops every reply.
func (n *PartitionNet) LoseReplies(from, to string) {
	n.setCut(from, to, cut{mode: linkLoseReplies})
}

// CutFor blackholes a<->b, self-healing after d on the injector's
// clock. The heal is lazy: it takes effect on the first send at or
// past the deadline, which with a virtual clock means the instant the
// experiment advances past it.
func (n *PartitionNet) CutFor(a, b string, d time.Duration) {
	healAt := n.clock.Now().Add(d)
	n.setCut(a, b, cut{mode: linkBlackhole, healAt: healAt})
	n.setCut(b, a, cut{mode: linkBlackhole, healAt: healAt})
}

// Degrade installs f on from->to until HealAll; its EveryN count starts
// from the first send after the call.
func (n *PartitionNet) Degrade(from, to string, f Fault) {
	mode := linkBlackhole
	if f.RetryAfter > 0 {
		mode = linkUnavailable
	}
	n.setCut(from, to, cut{Fault: f, mode: mode})
}

// HealAll reopens every link.
func (n *PartitionNet) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cuts = make(map[linkKey]*cut)
}

// send looks up the fault on the link a request to u crosses, expiring
// a timed cut, and counts the send: it returns the link's fault (zero
// on an open link) and whether this send is faulted.
func (n *PartitionNet) send(from string, u *url.URL) (cut, bool) {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	key := linkKey{from, n.resolve(u)}
	c, ok := n.cuts[key]
	if !ok {
		return cut{}, false
	}
	if !c.healAt.IsZero() && !now.Before(c.healAt) {
		delete(n.cuts, key)
		return cut{}, false
	}
	c.sends++
	return *c, c.EveryN <= 1 || (c.sends-1)%c.EveryN == 0
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

// linkError is a send the net failed; it reads as a dial timeout.
type linkError struct{}

func (linkError) Error() string { return "resilience: injected fault: link cut" }

// Timeout marks the error as a timeout so net-aware callers treat it
// like a dial deadline.
func (linkError) Timeout() bool { return true }

// RoundTrip implements http.RoundTripper.
func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c, faulted := t.net.send(t.from, req.URL)
	if c.Latency > 0 {
		if err := SleeperFor(t.net.clock).Sleep(req.Context(), c.Latency); err != nil {
			return nil, err
		}
	}
	if !faulted {
		return t.base.RoundTrip(req)
	}
	if c.mode == linkLoseReplies {
		// The request goes through — whatever it does on the far side
		// happens — and then the reply evaporates.
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, linkError{}
	}
	// The faulted request never reaches the server; release its body.
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	if c.mode == linkBlackhole {
		return nil, linkError{}
	}
	const body = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<error code="unavailable">injected fault: server overloaded</error>`
	h := http.Header{
		"Content-Type": {"application/xml; charset=utf-8"},
		"Retry-After":  {strconv.Itoa(max(1, int(c.RetryAfter/time.Second)))},
	}
	return &http.Response{
		Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)),
		Request: req,
	}, nil
}
