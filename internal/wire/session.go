// Sessions. A client opens one with a POST to PathSession carrying
// Upgrade: SessionUpgrade for the binary codec or SessionUpgradeXML for
// the XML one; the server answers 101 Switching Protocols naming the
// token, and the connection then carries internal/frame frames, as the
// binary protocol does, until either side closes it: one call frame
// from the client, one answer frame from the server, and so on, one call
// at a time. A call wraps one operation's request body in the session's
// codec, byte for byte what HTTP posts as its body, with what HTTP
// carries in headers: the request id, the priority and the client's
// epoch. An answer wraps that request's response body, byte for byte the
// HTTP body, with the status, Retry-After, the node's epoch and committed
// seq, and the echoed request id. docs/PROTOCOL.md, Sessions, has the
// lifecycle.
package wire

import (
	"encoding/binary"
	"fmt"
)

// PathSession is where a session is opened.
const PathSession = "/api/session"

// The Upgrade tokens that ask for a session, one per codec.
const (
	SessionUpgrade    = "reputation-session"
	SessionUpgradeXML = "reputation-session-xml"
)

// HeaderSessionIdle, on a session's 101, is how long in milliseconds the
// server leaves the session idle before it closes it; absent, it never does.
const HeaderSessionIdle = "X-Reputation-Session-Idle"

// Session frame types, after the request and response frame types.
const (
	BinFrameCall   byte = 7
	BinFrameAnswer byte = 8
)

// The operations a call carries, each the binary request of one path.
const (
	OpLookup      byte = 1
	OpVote        byte = 2
	OpLookupBatch byte = 3
)

var opPaths = [...]string{OpLookup: PathLookup, OpVote: PathVote, OpLookupBatch: PathLookupBatch}

// OpPath is the path whose request op carries, "" for no operation.
func OpPath(op byte) string {
	if int(op) >= len(opPaths) {
		return ""
	}
	return opPaths[op]
}

// PathOp is the operation that carries path's request, 0 for none.
func PathOp(path string) byte {
	for op, p := range opPaths {
		if p != "" && p == path {
			return byte(op)
		}
	}
	return 0
}

// Call is one call: a BinFrameCall payload as Read reads it in place, its
// byte fields views of the payload.
type Call struct {
	Op        byte
	RequestID []byte
	Priority  []byte // a HeaderPriority value, or empty
	Epoch     uint64 // the highest epoch the client has observed, 0 for none
	// Request is the operation's request in the session's codec, a frame
	// with its header and CRC or an XML document: what an HTTP request
	// would carry as its body.
	Request []byte
}

// AppendCall appends c as one complete frame to dst.
func AppendCall(dst []byte, c *Call) []byte {
	w := beginFrame(dst, BinFrameCall)
	w.u64(uint64(c.Op))
	w.blob(c.RequestID)
	w.blob(c.Priority)
	w.u64(c.Epoch)
	w.buf = append(w.buf, c.Request...)
	return w.end()
}

// Read reads a BinFrameCall payload into c.
func (c *Call) Read(payload []byte) error {
	r := binReader{buf: payload}
	r.expect(BinFrameCall)
	op := r.u64()
	*c = Call{Op: byte(op), RequestID: r.bytes(), Priority: r.bytes(), Epoch: r.u64()}
	c.Request = r.rest()
	if r.err == nil && (op > 255 || OpPath(byte(op)) == "") {
		return fmt.Errorf("%w: unknown operation %d", ErrBinaryFrame, op)
	}
	return r.done()
}

// Answer is one answer: a BinFrameAnswer payload as Read reads it in
// place, its byte fields views of the payload.
type Answer struct {
	Status        int
	RetryAfter    uint64 // Retry-After in seconds, 0 for none
	Epoch, AckSeq uint64 // the node's epoch and committed seq when it answered
	// Close says the server closes the session after this answer.
	Close     bool
	RequestID []byte // the call's, echoed
	// Body is the response's body in the session's codec: what the HTTP
	// response would carry.
	Body []byte
}

// AppendAnswer appends a as one complete frame to dst.
func AppendAnswer(dst []byte, a *Answer) []byte {
	w := beginFrame(dst, BinFrameAnswer)
	w.u64(uint64(a.Status))
	w.u64(a.RetryAfter)
	w.u64(a.Epoch)
	w.u64(a.AckSeq)
	w.bool(a.Close)
	w.blob(a.RequestID)
	w.buf = append(w.buf, a.Body...)
	return w.end()
}

// Read reads a BinFrameAnswer payload into a.
func (a *Answer) Read(payload []byte) error {
	r := binReader{buf: payload}
	r.expect(BinFrameAnswer)
	status := r.u64()
	*a = Answer{RetryAfter: r.u64(), Epoch: r.u64(), AckSeq: r.u64(), Close: r.bool(), RequestID: r.bytes()}
	a.Body = r.rest()
	if r.err == nil && (status < 100 || status > 999) {
		return fmt.Errorf("%w: status %d", ErrBinaryFrame, status)
	}
	a.Status = int(status)
	return r.done()
}

func (w *binWriter) blob(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// rest reads what is left of the payload, in place.
func (r *binReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[:len(r.buf):len(r.buf)]
	r.buf = r.buf[len(r.buf):]
	return b
}
