package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// fuzzSessionSeeds returns one call and one answer frame, the corpus the
// fuzzer mutates from.
func fuzzSessionSeeds() [][]byte {
	lookup := EncodeBinaryLookup(&LookupRequest{Software: SoftwareInfo{ID: "abcd1234", FileName: "tool.exe", FileSize: 4096}})
	return [][]byte{
		AppendCall(nil, &Call{Op: OpLookup, RequestID: []byte("0123456789abcdef"), Priority: []byte(PriorityCritical), Epoch: 3, Request: lookup}),
		AppendCall(nil, &Call{Op: OpVote}),
		AppendAnswer(nil, &Answer{Status: 200, Epoch: 3, AckSeq: 1 << 40, RequestID: []byte("0123456789abcdef"), Body: EncodeBinaryReport(sampleReport())}),
		AppendAnswer(nil, &Answer{Status: 503, RetryAfter: 2, Close: true, Body: EncodeBinaryError(&ErrorResponse{Code: CodeUnavailable})}),
	}
}

// FuzzSessionFrame feeds arbitrary bytes to a session's reader, as a
// stream of frames read into one reused buffer, and to the call and
// answer decoders. It holds them to three things: no input panics; no
// read allocates more than a few times the bytes it was given, whatever
// length a header forges; and what a decoder accepts encodes to a frame
// that decodes to the same call or answer.
func FuzzSessionFrame(f *testing.F) {
	for _, frame := range fuzzSessionSeeds() {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		forged := bytes.Clone(frame)
		binary.BigEndian.PutUint32(forged[0:4], MaxBinaryFrame+1)
		f.Add(forged)
		payload, _, _ := SplitBinaryFrame(frame)
		for n := 1; n <= len(payload); n++ {
			f.Add(payload[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for first := true; ; first = false {
			var before runtime.MemStats
			if first {
				runtime.ReadMemStats(&before)
			}
			payload, err := ReadBinaryFrameInto(r, buf, MaxBinaryFrame)
			if first {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+64<<10 {
					t.Fatalf("one frame read allocated %d bytes", grew)
				}
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBinaryFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			buf = payload
			checkSessionPayload(t, payload)
		}
		checkSessionPayload(t, data)
	})
}

// checkSessionPayload decodes payload as a call and as an answer, and
// round-trips whichever it is.
func checkSessionPayload(t *testing.T, payload []byte) {
	t.Helper()
	var c Call
	if c.Read(payload) == nil {
		var again Call
		if err := again.Read(framePayload(t, AppendCall(nil, &c))); err != nil {
			t.Fatalf("re-encoded call does not decode: %v", err)
		}
		if c.Op != again.Op || c.Epoch != again.Epoch || !bytes.Equal(c.RequestID, again.RequestID) ||
			!bytes.Equal(c.Priority, again.Priority) || !bytes.Equal(c.Request, again.Request) {
			t.Fatalf("call round trip: %+v != %+v", c, again)
		}
	}
	var a Answer
	if a.Read(payload) == nil {
		var again Answer
		if err := again.Read(framePayload(t, AppendAnswer(nil, &a))); err != nil {
			t.Fatalf("re-encoded answer does not decode: %v", err)
		}
		if a.Status != again.Status || a.RetryAfter != again.RetryAfter || a.Epoch != again.Epoch || a.AckSeq != again.AckSeq ||
			a.Close != again.Close || !bytes.Equal(a.RequestID, again.RequestID) || !bytes.Equal(a.Body, again.Body) {
			t.Fatalf("answer round trip: %+v != %+v", a, again)
		}
	}
}

// framePayload is the payload of one whole frame.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, rest, err := SplitBinaryFrame(frame)
	if err != nil || len(rest) != 0 {
		t.Fatalf("not one frame: %v", err)
	}
	return payload
}
