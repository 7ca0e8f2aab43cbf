//go:build linux

package main

import "testing"

func TestSelfTimeNested(t *testing.T) {
	// call 0..100 > roundtrip 10..90 > handler 30..60
	spans := []span{
		{ID: 1, Name: "client.call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 30, End: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 50, 3: 30} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

// A streamed response: the handler keeps writing after the client's
// round trip returned with the headers. The round trip's self time is
// only the part before the handler started; the call's self time must
// not count the handler's tail as client work.
func TestSelfTimeHandlerOutlivesRoundTrip(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.call", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "client.roundtrip", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 30, End: 180},
	}
	self := selfTimes(spans)
	if self[2] != 20 {
		t.Errorf("roundtrip self = %d, want 20 (10..30)", self[2])
	}
	if self[1] != 30 {
		t.Errorf("call self = %d, want 30 (0..10 and 180..200)", self[1])
	}
	if self[3] != 150 {
		t.Errorf("handler self = %d, want 150", self[3])
	}
}

func TestSelfTimeOverlappingAndSiblingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 10..60 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // clipped at the parent's end
		{ID: 5, Name: "unrelated root", Start: 0, End: 1000},
	}
	self := selfTimes(spans)
	if self[1] != 100-50-20 {
		t.Errorf("parent self = %d, want 30", self[1])
	}
	if self[5] != 1000 {
		t.Errorf("root without children self = %d, want its duration", self[5])
	}
}

func TestTracerLinksSpansOfOneRequest(t *testing.T) {
	tr := newTracer()
	call := tr.begin("client.call", "req-1", 1)
	rt := tr.begin("client.roundtrip", "req-1", 0)
	h := tr.begin("server.handler", "req-1", 0)
	other := tr.begin("client.call", "req-2", 1)
	tr.end(h)
	tr.end(rt)
	tr.end(call)
	tr.end(other)
	direct := tr.begin("wire.bin_lookup_encode_ns", "", 64)
	tr.end(direct)
	want := map[int]int{call: 0, rt: call, h: rt, other: 0, direct: 0}
	for id, parent := range want {
		if got := tr.spans[id-1].Parent; got != parent {
			t.Errorf("span %d (%s) parent = %d, want %d", id, tr.spans[id-1].Name, got, parent)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("requests still open after their root spans ended: %v", tr.open)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}
