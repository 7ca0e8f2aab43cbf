// Binary-protocol negotiation and the batched lookup endpoint.
//
// The binary protocol is negotiated per request: a body with
// Content-Type application/x-reputation-binary is a binary frame and
// gets binary frames back; anything else is the XML compat arm,
// byte-identical to the pre-binary protocol. A client sends frames only
// on sessions (session.go); one whose upgrade is refused by an older
// server pins the endpoint and speaks XML over HTTP to it.
//
// Errors come back in the request's format too (scope.fail).
//
// A malformed binary frame answers 400 with a binary error frame and
// the connection stays open: the request body was fully read (the frame
// boundary is the HTTP body boundary), so the connection's framing is
// intact even though the frame's content was garbage.
package server

import (
	"fmt"
	"net/http"

	"softreputation/internal/core"
	"softreputation/internal/repcache"
	"softreputation/internal/wire"
)

// protocols names the wire formats the server speaks, most preferred
// first, as advertised in /healthz and printed by reputectl health.
const protocols = "binary,xml"

// isBinaryRequest reports whether the request carries a binary frame.
func isBinaryRequest(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.BinaryContentType
}

// send answers with pre-encoded bytes in the request's format, a binary
// frame counted on its way out. The report cache calls it under its lock,
// so it takes none: expire, which holds mu while it writes to the client,
// touches none of header, status and out.
func (sc *scope) send(data []byte) {
	sc.header["Content-Type"] = xmlContentType
	if sc.bin {
		sc.header["Content-Type"] = binaryContentType
		sc.s.tel.binaryFrameOut(len(data))
	}
	sc.WriteHeader(http.StatusOK)
	sc.out.Write(data)
}

// sendReport answers with one report, its entry's Content-Length past 1 KiB
// over HTTP.
func (sc *scope) sendReport(r repcache.Report) {
	if len(r.Data) >= len(contentLengths) && !sc.framed() {
		sc.length[0] = r.ContentLength()
	}
	sc.send(r.Data)
}

// sendFrame adds one report to a batch's answer.
func (sc *scope) sendFrame(r repcache.Report) { sc.send(r.Data) }

// splitWholeBinaryBody splits an HTTP body that must hold exactly one
// binary frame.
func splitWholeBinaryBody(body []byte) ([]byte, error) {
	payload, rest, err := wire.SplitBinaryFrame(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after frame", wire.ErrBinaryFrame, len(rest))
	}
	return payload, nil
}

// parse reads a request body with the reader of its codec, a binary
// one's as one frame, answering bad-request when it cannot, and reports
// whether the handler should continue.
func (sc *scope) parse(body []byte, readFrame, readXML func([]byte) error) bool {
	var err error
	if !sc.bin {
		err = readXML(body)
	} else if body, err = splitWholeBinaryBody(body); err == nil {
		err = readFrame(body)
	}
	if err != nil {
		if sc.bin {
			sc.s.tel.binaryMalformed()
		}
		sc.fail(http.StatusBadRequest, badRequest(err))
	}
	return err == nil
}

// handleLookupBatch serves POST /api/lookup-batch: one binary frame
// carrying N software blocks plus the shared feed list in, N frames
// out (BinFrameReport or BinFrameError, in request order), as one
// buffered body with an exact Content-Length that the client decodes
// frame by frame. The endpoint is binary-only — the batch exists to
// amortize per-request wire cost, which XML cannot.
func (s *Server) handleLookupBatch(sc *scope, r *http.Request) {
	if !sc.requireMethod(r, http.MethodPost) {
		return
	}
	if !sc.bin {
		sc.fail(http.StatusUnsupportedMediaType, &wire.ErrorResponse{
			Code:    wire.CodeUnsupportedMedia,
			Message: "this endpoint takes binary frames only",
		})
		return
	}
	body, err := sc.readBody(r)
	if err != nil {
		sc.fail(http.StatusBadRequest, badRequest(err))
		return
	}
	s.tel.binaryFrameIn(len(body))
	rs := &sc.rep
	if !sc.parse(body, rs.view.ReadBatch, nil) {
		return
	}
	subscribe(s, rs, rs.view.Feeds)
	lean := s.leanReports()
	s.tel.batchServed(len(rs.view.Software))
	sc.header["Content-Type"] = binaryContentType
	for i := range rs.view.Software {
		s.sendBatchEntry(sc, &rs.view.Software[i], lean)
	}
}

// sendBatchEntry adds one batch entry's response frame to the answer: the
// cached (or freshly built) binary report, or a binary error frame
// carrying the entry's failure — a bad entry fails alone, not the whole
// batch. The entry is read in place, so a hit makes nothing of it.
func (s *Server) sendBatchEntry(sc *scope, sw *wire.SoftwareView, lean bool) {
	id, err := core.ParseSoftwareID(sw.ID)
	if err == nil {
		var semantic [reportKeyScratch]byte
		key := sc.rep.key(semantic[:0], repcache.FormatBinary, id)
		if err = s.cachedReport(sc, key, core.SoftwareMeta{ID: id}, sw, lean, sc.sendFrame); err == nil {
			return
		}
	}
	code, _ := errorCodeStatus(err)
	sc.send(wire.EncodeBinaryError(&wire.ErrorResponse{Code: code, Message: err.Error()}))
}
