//go:build linux

package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"softreputation/internal/wire"
)

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). A direct-call span times Calls back-to-back calls of one layer
// function, because a single call of most of them is shorter than the
// clock can resolve.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for the
// client goroutine and the server's handler goroutines to use at once.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// open maps a request ID to the client-side span that a server-side
	// span of the same request is caused by.
	open map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[string]int)}
}

// begin opens a span and returns its ID. A span opened with a request
// ID becomes the parent of the next span begun for that request.
func (t *tracer) begin(name, req string, calls int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := span{ID: id, Req: req, Name: name, Start: now, Calls: calls}
	if req != "" {
		s.Parent = t.open[req]
		t.open[req] = id
	}
	t.spans = append(t.spans, s)
	return id
}

// end closes span id, makes its parent the request's current span again
// and returns the span's duration in ns.
func (t *tracer) end(id int) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	switch {
	case s.Req == "":
	case s.Parent == 0:
		delete(t.open, s.Req)
	case t.open[s.Req] == id:
		t.open[s.Req] = s.Parent
	}
	return s.dur()
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedTransport records a client.roundtrip span per HTTP exchange:
// from handing the request to the transport until the response headers
// are back.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin("client.roundtrip", req.Header.Get(wire.HeaderRequestID), 0)
	resp, err := t.next.RoundTrip(req)
	t.tr.end(id)
	return resp, err
}

// tracedHandler records a server.handler span around the server's whole
// handler chain.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.begin("server.handler", r.Header.Get(wire.HeaderRequestID), 0)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its descendants cover. Descendants, not only children,
// because a streamed response lets the server's handler span outlive
// the client round trip that caused it: the handler still accounts for
// that time inside the enclosing client.call.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]int, len(spans))
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type interval struct{ lo, hi int64 }
	var collect func(id int, into *[]interval)
	collect = func(id int, into *[]interval) {
		for _, c := range children[id] {
			*into = append(*into, interval{byID[c].Start, byID[c].End})
			collect(c, into)
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var below []interval
		collect(s.ID, &below)
		sort.Slice(below, func(a, b int) bool { return below[a].lo < below[b].lo })
		covered, edge := int64(0), s.Start
		for _, iv := range below {
			lo, hi := max(iv.lo, edge), min(iv.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
