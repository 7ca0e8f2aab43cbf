// Binary-protocol negotiation and the batched lookup endpoint.
//
// The binary protocol is negotiated per request: a body with
// Content-Type application/x-reputation-binary is a binary frame and
// gets binary frames back; anything else is the XML compat arm,
// byte-identical to the pre-binary protocol. A server with
// Config.DisableBinary answers binary requests 415 unsupported-media
// (XML error document, since that is all it claims to speak), which the
// client treats as "pin this endpoint XML-only" — the same recovery it
// applies to a genuinely pre-binary server's 400.
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

// Protocol strings advertised in /healthz, most preferred first.
const (
	protocolsBinaryXML = "binary,xml"
	protocolsXMLOnly   = "xml"
)

// Protocols names the wire formats this server speaks, as advertised in
// /healthz and printed by reputectl health.
func (s *Server) Protocols() string {
	if s.cfg.DisableBinary {
		return protocolsXMLOnly
	}
	return protocolsBinaryXML
}

// isBinaryRequest reports whether the request carries a binary frame.
func isBinaryRequest(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.BinaryContentType
}

// send answers with pre-encoded bytes in the request's format, a binary
// frame counted on its way out.
func (sc *scope) send(data []byte) {
	sc.header["Content-Type"] = xmlContentType
	if sc.bin {
		sc.header["Content-Type"] = binaryContentType
		sc.s.tel.binaryFrameOut(len(data))
	}
	_, _ = sc.Write(data)
}

// unsupportedMedia is the answer to a request in a format the server or
// the endpoint does not take: 415, as the XML error document when the
// server speaks XML only.
func (sc *scope) unsupportedMedia() {
	sc.fail(http.StatusUnsupportedMediaType, &wire.ErrorResponse{
		Code:    wire.CodeUnsupportedMedia,
		Message: "this server speaks XML only",
	})
}

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

// decodeBinaryVoteBody decodes a one-frame vote request body.
func decodeBinaryVoteBody(body []byte) (wire.VoteRequest, error) {
	payload, err := splitWholeBinaryBody(body)
	if err != nil {
		return wire.VoteRequest{}, err
	}
	return wire.DecodeBinaryVote(payload)
}

// handleLookupBatch serves POST /api/lookup-batch: one binary frame
// carrying N software blocks plus the shared feed list in, N frames
// out (BinFrameReport or BinFrameError, in request order), as one
// buffered body with an exact Content-Length that the client decodes
// frame by frame. The endpoint is binary-only — the batch exists to
// amortize per-request wire cost, which XML cannot.
func (s *Server) handleLookupBatch(sc *scope, r *http.Request) {
	if !sc.requirePost(r) {
		return
	}
	if !sc.bin {
		sc.unsupportedMedia()
		return
	}
	body, err := sc.readBody(r)
	if err != nil {
		sc.fail(http.StatusBadRequest, badRequest(err))
		return
	}
	s.tel.binaryFrameIn(len(body))
	rs := &sc.rep
	payload, err := splitWholeBinaryBody(body)
	if err == nil {
		err = rs.view.ReadBatch(payload)
	}
	if err != nil {
		s.tel.binaryMalformed()
		sc.fail(http.StatusBadRequest, badRequest(err))
		return
	}
	subscribe(s, rs, rs.view.Feeds)
	lean := s.leanReports()
	s.tel.batchServed(len(rs.view.Software))
	sc.header["Content-Type"] = binaryContentType
	for i := range rs.view.Software {
		sc.send(s.batchEntryFrame(sc, &rs.view.Software[i], lean))
	}
}

// batchEntryFrame produces one batch entry's response frame: the cached
// (or freshly built) binary report, or a binary error frame carrying
// the entry's failure — a bad entry fails alone, not the whole batch.
// The entry is read in place, so a hit makes nothing of it.
func (s *Server) batchEntryFrame(sc *scope, sw *wire.SoftwareView, lean bool) []byte {
	id, err := core.ParseSoftwareID(sw.ID)
	if err == nil {
		var semantic [reportKeyScratch]byte
		var data []byte
		key := sc.rep.key(semantic[:0], repcache.FormatBinary, id)
		if data, err = s.cachedReport(sc, key, core.SoftwareMeta{ID: id}, sw, lean); err == nil {
			return data
		}
	}
	code, _ := errorCodeStatus(err)
	return wire.EncodeBinaryError(&wire.ErrorResponse{Code: code, Message: err.Error()})
}
