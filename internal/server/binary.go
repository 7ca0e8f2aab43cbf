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
// A malformed binary frame answers 400 with a binary error frame and
// the connection stays open: the request body was fully read (the frame
// boundary is the HTTP body boundary), so the connection's framing is
// intact even though the frame's content was garbage.
package server

import (
	"fmt"
	"net/http"

	"softreputation/internal/repcache"
	"softreputation/internal/wire"
)

// Protocol strings advertised in /healthz, most preferred first.
const (
	protocolsBinaryXML = "binary,xml"
	protocolsXMLOnly   = "xml"
)

// binaryEnabled reports whether this server speaks the binary protocol.
func (s *Server) binaryEnabled() bool { return !s.cfg.DisableBinary }

// Protocols names the wire formats this server speaks, as advertised in
// /healthz and printed by reputectl health.
func (s *Server) Protocols() string {
	if s.binaryEnabled() {
		return protocolsBinaryXML
	}
	return protocolsXMLOnly
}

// isBinaryRequest reports whether the request carries a binary frame.
func isBinaryRequest(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.BinaryContentType
}

// writeNegotiated sends pre-encoded response bytes in the negotiated format.
func writeNegotiated(w http.ResponseWriter, bin bool, data []byte) {
	ct := xmlContentType
	if bin {
		ct = binaryContentType
	}
	w.Header()["Content-Type"] = ct
	_, _ = w.Write(data)
}

// writeBinaryError sends a binary error frame with the given status.
func writeBinaryError(w http.ResponseWriter, status int, e *wire.ErrorResponse) {
	frame := wire.EncodeBinaryError(e)
	w.Header()["Content-Type"] = binaryContentType
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// writeErrorNegotiated is writeError in the request's format.
func writeErrorNegotiated(w http.ResponseWriter, bin bool, err error) {
	if !bin {
		writeError(w, err)
		return
	}
	code, status := errorCodeStatus(err)
	writeBinaryError(w, status, &wire.ErrorResponse{Code: code, Message: err.Error()})
}

// writeBadRequest answers status (400, 405) in the request's format.
func writeBadRequest(w http.ResponseWriter, bin bool, status int, err error) {
	e := &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: err.Error()}
	if bin {
		writeBinaryError(w, status, e)
		return
	}
	writeXMLStatus(w, status, e)
}

// writeUnsupportedMedia is the compat arm's answer to a binary request:
// 415 with the XML error document, the only format it speaks.
func writeUnsupportedMedia(w http.ResponseWriter) {
	writeXMLStatus(w, http.StatusUnsupportedMediaType, &wire.ErrorResponse{
		Code:    wire.CodeUnsupportedMedia,
		Message: "this server speaks XML only",
	})
}

// rejectWriteOnReplicaNegotiated is rejectWriteOnReplica in the
// request's format, so a binary client failing over learns the primary
// without an XML decode arm on its hot path.
func (s *Server) rejectWriteOnReplicaNegotiated(w http.ResponseWriter, bin bool) bool {
	if !bin {
		return s.rejectWriteOnReplica(w)
	}
	if !s.isReplica.Load() {
		return false
	}
	writeBinaryError(w, http.StatusMisdirectedRequest, &wire.ErrorResponse{
		Code:    wire.CodeRedirect,
		Primary: s.PrimaryURL(),
		Epoch:   s.Epoch(),
		Message: "replica does not accept writes; use the primary",
	})
	return true
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

// decodeBinaryLookupBody decodes a one-frame lookup request body.
func decodeBinaryLookupBody(body []byte) (wire.LookupRequest, error) {
	payload, err := splitWholeBinaryBody(body)
	if err != nil {
		return wire.LookupRequest{}, err
	}
	return wire.DecodeBinaryLookup(payload)
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
func (s *Server) handleLookupBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r, s.binaryEnabled() && isBinaryRequest(r)) {
		return
	}
	if !s.binaryEnabled() || !isBinaryRequest(r) {
		writeUnsupportedMedia(w)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeBadRequest(w, true, http.StatusBadRequest, err)
		return
	}
	s.tel.binaryFrameIn(len(body))
	var infos []wire.SoftwareInfo
	var feeds []string
	payload, err := splitWholeBinaryBody(body)
	if err == nil {
		infos, feeds, err = wire.DecodeBinaryLookupBatch(payload)
	}
	if err != nil {
		s.tel.binaryMalformed()
		writeBadRequest(w, true, http.StatusBadRequest, err)
		return
	}
	lean := s.leanReports()
	s.tel.batchServed(len(infos))
	w.Header()["Content-Type"] = binaryContentType
	for _, info := range infos {
		frame := s.batchEntryFrame(info, feeds, lean)
		s.tel.binaryFrameOut(len(frame))
		_, _ = w.Write(frame)
	}
}

// batchEntryFrame produces one batch entry's response frame: the cached
// (or freshly built) binary report, or a binary error frame carrying
// the entry's failure — a bad entry fails alone, not the whole batch.
func (s *Server) batchEntryFrame(info wire.SoftwareInfo, feeds []string, lean bool) []byte {
	meta, err := metaFromWire(info)
	if err != nil {
		code, _ := errorCodeStatus(err)
		return wire.EncodeBinaryError(&wire.ErrorResponse{Code: code, Message: err.Error()})
	}
	key := repcache.FormatKey(repcache.FormatBinary, reportCacheKey(meta.ID, feeds))
	data, err := s.reports.Do(reportOwner(meta.ID), key, func() ([]byte, bool, error) {
		resp, err := s.buildLookupResponse(meta, feeds, lean)
		if err != nil {
			return nil, false, err
		}
		return wire.EncodeBinaryReport(resp), resp.Known && !lean, nil
	})
	if err != nil {
		code, _ := errorCodeStatus(err)
		return wire.EncodeBinaryError(&wire.ErrorResponse{Code: code, Message: err.Error()})
	}
	return data
}
