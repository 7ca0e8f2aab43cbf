// Binary wire protocol. XML remains the compatibility arm (§3.2 of the
// paper specifies it), but at millions of clients the per-lookup XML
// encode/decode dominates server CPU on a path the report cache already
// made storage-free. The binary protocol is a first-class peer of XML,
// negotiated per request via Content-Type/Accept, and generalizes the
// framing discipline internal/replication uses on the WAL stream:
//
//	[4 bytes payload length][4 bytes CRC-32 (IEEE) of payload][payload]
//
// The payload's first byte is the frame type; the remaining fields are
// varint-encoded (uvarint for counts and lengths, zig-zag varint for
// signed integers, fixed 8 bytes for float64 bits, uvarint length +
// bytes for strings). The CRC is verified before any field is decoded,
// so a corrupted frame is rejected wholesale — exactly the WAL's
// discipline — and a forged length header is bounded by MaxBinaryFrame
// before any allocation happens.
//
// A batched lookup posts one BinFrameLookupBatch carrying N software
// blocks plus the shared feed list; the server answers with N frames
// (BinFrameReport or BinFrameError, one per entry, in request order)
// streamed over the same persistent connection.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// BinaryContentType is the negotiated media type of binary requests and
// responses. A server that does not speak it answers
// 415 unsupported-media; a pre-binary server answers 400 bad-request
// (the frame is not XML) — clients treat both as "fall back to XML".
const BinaryContentType = "application/x-reputation-binary"

// PathLookupBatch is the batched lookup endpoint. Binary-only: the
// whole point of the batch is to amortize per-request wire cost, which
// the XML arm cannot do.
const PathLookupBatch = "/api/lookup-batch"

// CodeUnsupportedMedia is returned (HTTP 415) for a request body in a
// content type this server does not speak — the compat arm's answer to
// a binary frame. The client re-sends the request as XML and pins the
// endpoint as XML-only.
const CodeUnsupportedMedia = "unsupported-media"

// MaxBinaryFrame bounds one frame's payload, matching the 1 MiB HTTP
// body cap. A forged length header is rejected before allocation.
const MaxBinaryFrame = 1 << 20

// MaxBatchLookups bounds how many software blocks one batch frame may
// carry; larger batches answer bad-request. It keeps one batch's
// handler time comparable to a burst of single lookups, so the
// admission layer's latency signal stays meaningful.
const MaxBatchLookups = 256

// binFrameHeaderSize is the length + CRC prefix, mirroring
// internal/replication's frame header.
const binFrameHeaderSize = 8

// Binary frame types (first payload byte).
const (
	BinFrameError       byte = 1
	BinFrameLookup      byte = 2
	BinFrameReport      byte = 3
	BinFrameLookupBatch byte = 4
	BinFrameVote        byte = 5
	BinFrameVoteAck     byte = 6
)

// ErrBinaryFrame reports a frame whose length, CRC, or field encoding
// is invalid. The request (or stream position) cannot be trusted, but
// the connection can: the frame boundary is known, so the server
// answers a wire error without dropping the connection.
var ErrBinaryFrame = errors.New("wire: bad binary frame")

// AppendBinaryFrame appends one length+CRC framed payload to dst and
// returns the extended slice.
func AppendBinaryFrame(dst, payload []byte) []byte {
	var hdr [binFrameHeaderSize]byte
	putBinaryFrameHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// putBinaryFrameHeader writes payload's length and CRC into hdr.
func putBinaryFrameHeader(hdr, payload []byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// ReadBinaryFrame reads one frame from r and verifies its CRC. It
// returns io.EOF at a clean end of stream and ErrBinaryFrame for a
// frame that is torn, oversized, or corrupt.
func ReadBinaryFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [binFrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header: %v", ErrBinaryFrame, err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	wantCRC := binary.BigEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxBinaryFrame {
		return nil, fmt.Errorf("%w: length %d", ErrBinaryFrame, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload: %v", ErrBinaryFrame, err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: crc mismatch", ErrBinaryFrame)
	}
	return payload, nil
}

// SplitBinaryFrame splits buf into the first frame's payload and the
// remaining bytes. It is ReadBinaryFrame for callers that already hold
// the whole body (an HTTP request).
func SplitBinaryFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < binFrameHeaderSize {
		return nil, nil, fmt.Errorf("%w: short frame header", ErrBinaryFrame)
	}
	length := binary.BigEndian.Uint32(buf[0:4])
	wantCRC := binary.BigEndian.Uint32(buf[4:8])
	if length == 0 || length > MaxBinaryFrame {
		return nil, nil, fmt.Errorf("%w: length %d", ErrBinaryFrame, length)
	}
	if uint32(len(buf)-binFrameHeaderSize) < length {
		return nil, nil, fmt.Errorf("%w: torn payload", ErrBinaryFrame)
	}
	payload = buf[binFrameHeaderSize : binFrameHeaderSize+int(length)]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, nil, fmt.Errorf("%w: crc mismatch", ErrBinaryFrame)
	}
	return payload, buf[binFrameHeaderSize+int(length):], nil
}

// BinaryFrameType returns a payload's frame type byte (0 for an empty
// payload, which no encoder produces).
func BinaryFrameType(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// binWriter accumulates a frame payload.
type binWriter struct {
	buf []byte
}

func (w *binWriter) u64(v uint64)  { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) i64(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *binWriter) f64(v float64) { w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v)) }

func (w *binWriter) str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *binWriter) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// frame completes the payload into a framed message.
func (w *binWriter) frame() []byte {
	return AppendBinaryFrame(make([]byte, 0, binFrameHeaderSize+len(w.buf)), w.buf)
}

// binReader consumes a frame payload, latching the first error so
// field reads can chain without per-call checks.
type binReader struct {
	buf []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBinaryFrame, what)
	}
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *binReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("short float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

func (r *binReader) str() string { return string(r.bytes()) }

// bytes reads a string field in place: a view of the payload, its
// capacity cut to its length, so an append to it copies.
func (r *binReader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("string length past frame end")
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *binReader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.fail("short bool")
		return false
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	if v > 1 {
		r.fail("bad bool")
		return false
	}
	return v == 1
}

// count reads a collection length and bounds it by the bytes actually
// remaining (each element costs at least min bytes), so a forged count
// cannot drive a giant allocation — the WAL decoder's lesson.
func (r *binReader) count(min int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(r.buf)/min) {
		r.fail("count past frame end")
		return 0
	}
	return int(n)
}

// done verifies the payload was consumed exactly.
func (r *binReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinaryFrame, len(r.buf))
	}
	return nil
}

// expect verifies the payload's frame type and positions the reader
// after it.
func (r *binReader) expect(typ byte) {
	if r.err != nil {
		return
	}
	if len(r.buf) < 1 || r.buf[0] != typ {
		r.fail("wrong frame type")
		return
	}
	r.buf = r.buf[1:]
}

func appendSoftwareInfo(w *binWriter, info SoftwareInfo) {
	w.str(info.ID)
	w.str(info.FileName)
	w.i64(info.FileSize)
	w.str(info.Vendor)
	w.str(info.Version)
}

// SoftwareView is a software block read in place (LookupView): its byte
// fields are views of the frame's payload, valid and unchanged only for as
// long as the payload is.
type SoftwareView struct {
	ID, FileName    []byte
	FileSize        int64
	Vendor, Version []byte
}

// Info copies the view out.
func (v SoftwareView) Info() SoftwareInfo {
	return SoftwareInfo{ID: string(v.ID), FileName: string(v.FileName), FileSize: v.FileSize,
		Vendor: string(v.Vendor), Version: string(v.Version)}
}

// readSoftwareView is the one reader of a software block.
func readSoftwareView(r *binReader) SoftwareView {
	return SoftwareView{
		ID:       r.bytes(),
		FileName: r.bytes(),
		FileSize: r.i64(),
		Vendor:   r.bytes(),
		Version:  r.bytes(),
	}
}

// LookupView is a lookup frame read in place: the software block of a
// BinFrameLookup or the up to MaxBatchLookups of a BinFrameLookupBatch,
// and the feed list, every field a view of the payload. Reading into a
// used view reuses its slices: once grown, it allocates nothing.
type LookupView struct {
	Software []SoftwareView
	Feeds    [][]byte
}

// ReadLookup reads a BinFrameLookup payload into v.
func (v *LookupView) ReadLookup(payload []byte) error {
	r := binReader{buf: payload}
	r.expect(BinFrameLookup)
	v.Software = append(v.Software[:0], readSoftwareView(&r))
	v.readFeeds(&r)
	return r.done()
}

// ReadBatch reads a BinFrameLookupBatch payload into v, the whole frame
// before any entry is used: a malformed one is rejected whole.
func (v *LookupView) ReadBatch(payload []byte) error {
	r := binReader{buf: payload}
	r.expect(BinFrameLookupBatch)
	v.readFeeds(&r)
	ni := r.count(5) // a software block is at least five length bytes
	if ni > MaxBatchLookups {
		return fmt.Errorf("%w: batch of %d exceeds %d", ErrBinaryFrame, ni, MaxBatchLookups)
	}
	v.Software = v.Software[:0]
	for i := 0; i < ni; i++ {
		v.Software = append(v.Software, readSoftwareView(&r))
	}
	return r.done()
}

func (v *LookupView) readFeeds(r *binReader) {
	n := r.count(1)
	v.Feeds = v.Feeds[:0]
	for i := 0; i < n; i++ {
		v.Feeds = append(v.Feeds, r.bytes())
	}
}

// feeds copies the feed list out, nil when it is empty.
func (v *LookupView) feeds() []string {
	var feeds []string
	for _, f := range v.Feeds {
		feeds = append(feeds, string(f))
	}
	return feeds
}

// EncodeBinaryLookup encodes one lookup request as a complete frame.
func EncodeBinaryLookup(req *LookupRequest) []byte {
	w := &binWriter{buf: make([]byte, 0, 96)}
	w.buf = append(w.buf, BinFrameLookup)
	appendSoftwareInfo(w, req.Software)
	w.u64(uint64(len(req.Feeds)))
	for _, f := range req.Feeds {
		w.str(f)
	}
	return w.frame()
}

// DecodeBinaryLookup decodes a BinFrameLookup payload: ReadLookup's, copied out.
func DecodeBinaryLookup(payload []byte) (LookupRequest, error) {
	var v LookupView
	if err := v.ReadLookup(payload); err != nil {
		return LookupRequest{}, err
	}
	return LookupRequest{Software: v.Software[0].Info(), Feeds: v.feeds()}, nil
}

// EncodeBinaryLookupBatch encodes N software blocks plus the shared
// feed subscription list as one frame.
func EncodeBinaryLookupBatch(infos []SoftwareInfo, feeds []string) []byte {
	w := &binWriter{buf: make([]byte, 0, 32+64*len(infos))}
	w.buf = append(w.buf, BinFrameLookupBatch)
	w.u64(uint64(len(feeds)))
	for _, f := range feeds {
		w.str(f)
	}
	w.u64(uint64(len(infos)))
	for _, info := range infos {
		appendSoftwareInfo(w, info)
	}
	return w.frame()
}

// DecodeBinaryLookupBatch decodes a BinFrameLookupBatch payload: ReadBatch's, copied out.
func DecodeBinaryLookupBatch(payload []byte) (infos []SoftwareInfo, feeds []string, err error) {
	var v LookupView
	if err := v.ReadBatch(payload); err != nil {
		return nil, nil, err
	}
	infos = make([]SoftwareInfo, len(v.Software))
	for i := range v.Software {
		infos[i] = v.Software[i].Info()
	}
	return infos, v.feeds(), nil
}

// EncodeBinaryReport encodes one lookup response as a complete frame.
func EncodeBinaryReport(resp *LookupResponse) []byte {
	return AppendBinaryReport(make([]byte, 0, 256), resp)
}

// AppendBinaryReport appends EncodeBinaryReport's frame to dst: the
// payload is written in place behind room for its header, which is
// filled in last.
func AppendBinaryReport(dst []byte, resp *LookupResponse) []byte {
	start := len(dst)
	w := &binWriter{buf: append(dst, make([]byte, binFrameHeaderSize)...)}
	w.buf = append(w.buf, BinFrameReport)
	w.bool(resp.Known)
	w.str(resp.ID)
	w.f64(resp.Score)
	w.i64(int64(resp.Votes))
	w.str(resp.Behaviors)
	w.str(resp.Vendor)
	w.f64(resp.VendorScore)
	w.i64(int64(resp.VendorCount))
	w.u64(uint64(len(resp.Comments)))
	for i := range resp.Comments {
		c := &resp.Comments[i]
		w.u64(c.ID)
		w.str(c.User)
		w.str(c.Text)
		w.i64(int64(c.Positive))
		w.i64(int64(c.Negative))
		w.str(c.At)
		w.f64(c.AuthorTrust)
	}
	w.u64(uint64(len(resp.Advice)))
	for _, a := range resp.Advice {
		w.str(a.Feed)
		w.f64(a.Score)
		w.str(a.Behaviors)
		w.str(a.Note)
	}
	putBinaryFrameHeader(w.buf[start:], w.buf[start+binFrameHeaderSize:])
	return w.buf
}

// DecodeBinaryReport decodes a BinFrameReport payload.
func DecodeBinaryReport(payload []byte) (LookupResponse, error) {
	r := &binReader{buf: payload}
	r.expect(BinFrameReport)
	var resp LookupResponse
	resp.Known = r.bool()
	resp.ID = r.str()
	resp.Score = r.f64()
	resp.Votes = int(r.i64())
	resp.Behaviors = r.str()
	resp.Vendor = r.str()
	resp.VendorScore = r.f64()
	resp.VendorCount = int(r.i64())
	nc := r.count(13) // a comment is at least 13 bytes (lengths + floats)
	for i := 0; i < nc; i++ {
		resp.Comments = append(resp.Comments, CommentInfo{
			ID:          r.u64(),
			User:        r.str(),
			Text:        r.str(),
			Positive:    int(r.i64()),
			Negative:    int(r.i64()),
			At:          r.str(),
			AuthorTrust: r.f64(),
		})
	}
	na := r.count(11)
	for i := 0; i < na; i++ {
		resp.Advice = append(resp.Advice, AdviceInfo{
			Feed:      r.str(),
			Score:     r.f64(),
			Behaviors: r.str(),
			Note:      r.str(),
		})
	}
	return resp, r.done()
}

// EncodeBinaryVote encodes one vote request as a complete frame.
func EncodeBinaryVote(req *VoteRequest) []byte {
	w := &binWriter{buf: make([]byte, 0, 128)}
	w.buf = append(w.buf, BinFrameVote)
	w.str(req.Session)
	appendSoftwareInfo(w, req.Software)
	w.i64(int64(req.Score))
	w.str(req.Behaviors)
	w.str(req.Comment)
	return w.frame()
}

// DecodeBinaryVote decodes a BinFrameVote payload.
func DecodeBinaryVote(payload []byte) (VoteRequest, error) {
	r := &binReader{buf: payload}
	r.expect(BinFrameVote)
	var req VoteRequest
	req.Session = r.str()
	req.Software = readSoftwareView(r).Info()
	req.Score = int(r.i64())
	req.Behaviors = r.str()
	req.Comment = r.str()
	return req, r.done()
}

// EncodeBinaryVoteAck encodes a vote acknowledgement as a complete
// frame.
func EncodeBinaryVoteAck(resp *VoteResponse) []byte {
	w := &binWriter{buf: make([]byte, 0, 16)}
	w.buf = append(w.buf, BinFrameVoteAck)
	w.u64(resp.CommentID)
	return w.frame()
}

// DecodeBinaryVoteAck decodes a BinFrameVoteAck payload.
func DecodeBinaryVoteAck(payload []byte) (VoteResponse, error) {
	r := &binReader{buf: payload}
	r.expect(BinFrameVoteAck)
	var resp VoteResponse
	resp.CommentID = r.u64()
	return resp, r.done()
}

// EncodeBinaryError encodes a wire error as a complete frame.
func EncodeBinaryError(e *ErrorResponse) []byte {
	w := &binWriter{buf: make([]byte, 0, 64)}
	w.buf = append(w.buf, BinFrameError)
	w.str(e.Code)
	w.str(e.Primary)
	w.u64(e.Epoch)
	w.str(e.Message)
	return w.frame()
}

// DecodeBinaryError decodes a BinFrameError payload.
func DecodeBinaryError(payload []byte) (*ErrorResponse, error) {
	r := &binReader{buf: payload}
	r.expect(BinFrameError)
	e := &ErrorResponse{
		Code:    r.str(),
		Primary: r.str(),
		Epoch:   r.u64(),
	}
	e.Message = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}
