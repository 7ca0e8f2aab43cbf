// Client side of the binary protocol: the compact-framing transport
// arm with per-endpoint fallback to XML, and the batched lookup call.
//
// Negotiation is learned, not configured: a binary-enabled client tries
// the binary framing first and pins an endpoint as XML-only the moment
// it answers 415 unsupported-media (a compat-arm server that knows the
// media type and refuses it) or 400/404/405 (a genuinely pre-binary
// server that sees the frame as malformed XML or has no batch route).
// The pin is per endpoint, so a mixed-version tier — binary primary
// with XML replicas, or the reverse — interoperates during a rollout:
// each endpoint is spoken to in the best protocol it has.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"softreputation/internal/core"
	"softreputation/internal/resilience"
	"softreputation/internal/wire"
)

// maxBatchResponseBytes bounds a batch response: up to MaxBatchLookups
// report frames, each individually bounded by the frame reader.
const maxBatchResponseBytes = 8 << 20

// EnableBinaryProtocol opts this client into the compact binary
// framing, returning the API for chaining. Endpoints that do not speak
// it fall back to XML automatically and are pinned so later requests
// skip the failed negotiation.
func (a *API) EnableBinaryProtocol() *API {
	a.protoMu.Lock()
	a.binary = true
	a.protoMu.Unlock()
	return a
}

// binaryEnabled reports whether the binary arm is on.
func (a *API) binaryEnabled() bool {
	a.protoMu.Lock()
	defer a.protoMu.Unlock()
	return a.binary
}

// useBinary reports whether base should be spoken to in binary.
func (a *API) useBinary(base string) bool {
	a.protoMu.Lock()
	defer a.protoMu.Unlock()
	return a.binary && !a.xmlOnly[base]
}

// pinXMLOnly records that base refused the binary protocol.
func (a *API) pinXMLOnly(base string) {
	a.protoMu.Lock()
	if a.xmlOnly == nil {
		a.xmlOnly = make(map[string]bool)
	}
	a.xmlOnly[base] = true
	a.protoMu.Unlock()
}

// XMLOnlyEndpoints returns the endpoints pinned as XML-only, for
// inspection by tests and operator tooling.
func (a *API) XMLOnlyEndpoints() []string {
	a.protoMu.Lock()
	defer a.protoMu.Unlock()
	out := make([]string, 0, len(a.xmlOnly))
	for base := range a.xmlOnly {
		out = append(out, base)
	}
	return out
}

// binaryUnsupported reports whether err is an endpoint's way of saying
// it does not speak the binary protocol (or lacks the batch route):
// 415 from a compat-arm server that recognises and refuses the media
// type, 400 from a pre-binary server whose XML decoder choked on the
// frame, 404/405 from a server without the route. All mean the same
// recovery: re-send as XML and pin the endpoint.
func binaryUnsupported(err error) bool {
	var httpErr *resilience.HTTPStatusError
	if !errors.As(err, &httpErr) {
		return false
	}
	switch httpErr.Status {
	case http.StatusUnsupportedMediaType, http.StatusBadRequest,
		http.StatusNotFound, http.StatusMethodNotAllowed:
		return true
	}
	return false
}

// binaryRoundTrip is send under the binary codec: one frame is posted
// to base+path and each response frame is fed to onFrame.
func (a *API) binaryRoundTrip(ctx context.Context, base, path string, frame []byte, limit int64, onFrame func(payload []byte) error) error {
	return a.send(ctx, base, path, wire.BinaryContentType, frame, limit, func(r io.Reader) error {
		br := bufio.NewReader(r)
		for {
			payload, err := wire.ReadBinaryFrame(br)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("client: %s: %w", path, err)
			}
			if err := onFrame(payload); err != nil {
				return err
			}
		}
	})
}

// decodeErrorBody extracts the wire error from a non-2xx response in
// whichever format the server used.
func decodeErrorBody(path string, httpResp *http.Response, limited io.Reader) error {
	if httpResp.Header.Get("Content-Type") == wire.BinaryContentType {
		body, err := io.ReadAll(limited)
		if err == nil {
			if payload, _, ferr := wire.SplitBinaryFrame(body); ferr == nil {
				if werr, derr := wire.DecodeBinaryError(payload); derr == nil {
					return werr
				}
			}
		}
	} else {
		var werr wire.ErrorResponse
		if err := wire.Decode(limited, &werr); err == nil {
			return &werr
		}
	}
	return fmt.Errorf("client: %s: status %s", path, httpResp.Status)
}

// lookupExchange performs one lookup in each endpoint's best protocol.
func (a *API) lookupExchange(ctx context.Context, req *wire.LookupRequest, resp *wire.LookupResponse) error {
	if !a.binaryEnabled() {
		return a.callRead(ctx, wire.PathLookup, req, resp)
	}
	frame := wire.EncodeBinaryLookup(req)
	var xmlBody []byte // encoded only if some endpoint needs XML
	return a.exchange(ctx, false, func(ctx context.Context, base string) error {
		if a.useBinary(base) {
			err := a.binaryRoundTrip(ctx, base, wire.PathLookup, frame, maxResponseBytes, func(payload []byte) error {
				return decodeReportFrame(payload, resp)
			})
			if !binaryUnsupported(err) {
				return err
			}
			a.pinXMLOnly(base)
		}
		if xmlBody == nil {
			body, err := encodeReq(req)
			if err != nil {
				return err
			}
			xmlBody = body
		}
		return a.roundTrip(ctx, base, wire.PathLookup, xmlBody, resp)
	})
}

// voteExchange performs one vote in each endpoint's best protocol.
func (a *API) voteExchange(ctx context.Context, req *wire.VoteRequest, resp *wire.VoteResponse) error {
	if !a.binaryEnabled() {
		return a.call(ctx, wire.PathVote, req, resp)
	}
	frame := wire.EncodeBinaryVote(req)
	var xmlBody []byte
	return a.exchange(ctx, true, func(ctx context.Context, base string) error {
		if a.useBinary(base) {
			err := a.binaryRoundTrip(ctx, base, wire.PathVote, frame, maxResponseBytes, func(payload []byte) error {
				ack, derr := wire.DecodeBinaryVoteAck(payload)
				if derr != nil {
					return derr
				}
				*resp = ack
				return nil
			})
			if !binaryUnsupported(err) {
				return err
			}
			a.pinXMLOnly(base)
		}
		if xmlBody == nil {
			body, err := encodeReq(req)
			if err != nil {
				return err
			}
			xmlBody = body
		}
		return a.roundTrip(ctx, base, wire.PathVote, xmlBody, resp)
	})
}

// decodeReportFrame decodes a report frame into resp, surfacing an
// error frame (a per-entry failure on the batch path) as the error it
// carries.
func decodeReportFrame(payload []byte, resp *wire.LookupResponse) error {
	if wire.BinaryFrameType(payload) == wire.BinFrameError {
		werr, derr := wire.DecodeBinaryError(payload)
		if derr != nil {
			return derr
		}
		return werr
	}
	r, derr := wire.DecodeBinaryReport(payload)
	if derr != nil {
		return derr
	}
	*resp = r
	return nil
}

// BatchResult is one entry's outcome in a LookupBatch: the report, or
// the per-entry error the server answered for it. Per-entry failures do
// not fail the batch — the other entries' reports are still valid.
type BatchResult struct {
	Report Report
	Err    error
}

// LookupBatch fetches reports for several executables in as few wire
// round trips as possible: one batch frame per MaxBatchLookups chunk on
// a binary endpoint, sequential single lookups on an XML-only one. The
// returned slice is index-aligned with metas. The error is the
// transport-level failure that prevented results; per-entry failures
// live in the results.
func (a *API) LookupBatch(ctx context.Context, metas []core.SoftwareMeta, feeds ...string) ([]BatchResult, error) {
	results := make([]BatchResult, len(metas))
	for start := 0; start < len(metas); start += wire.MaxBatchLookups {
		end := start + wire.MaxBatchLookups
		if end > len(metas) {
			end = len(metas)
		}
		if err := a.lookupBatchChunk(ctx, metas[start:end], feeds, results[start:end]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// lookupBatchChunk resolves one ≤MaxBatchLookups slice of the batch.
func (a *API) lookupBatchChunk(ctx context.Context, metas []core.SoftwareMeta, feeds []string, out []BatchResult) error {
	if len(metas) == 0 {
		return nil
	}
	infos := make([]wire.SoftwareInfo, len(metas))
	for i, m := range metas {
		infos[i] = metaToWire(m)
	}
	var frame []byte
	if a.binaryEnabled() {
		frame = wire.EncodeBinaryLookupBatch(infos, feeds)
	}
	return a.exchange(ctx, false, func(ctx context.Context, base string) error {
		if frame != nil && a.useBinary(base) {
			next := 0
			err := a.binaryRoundTrip(ctx, base, wire.PathLookupBatch, frame, maxBatchResponseBytes, func(payload []byte) error {
				if next >= len(out) {
					return fmt.Errorf("client: batch: more frames than entries")
				}
				out[next] = batchResultFromFrame(payload)
				next++
				return nil
			})
			if err == nil && next != len(out) {
				err = fmt.Errorf("client: batch: %d frames for %d entries", next, len(out))
			}
			if !binaryUnsupported(err) {
				return err
			}
			a.pinXMLOnly(base)
		}
		// XML-only endpoint: the batch degrades to sequential single
		// lookups against this endpoint. Endpoint-level failures abort
		// so the sweep can move on; application answers are per-entry.
		for i := range metas {
			var resp wire.LookupResponse
			body, err := encodeReq(&wire.LookupRequest{Software: infos[i], Feeds: feeds})
			if err != nil {
				return err
			}
			err = a.roundTrip(ctx, base, wire.PathLookup, body, &resp)
			if err != nil {
				if endpointFailure(err) {
					return err
				}
				out[i] = BatchResult{Err: err}
				continue
			}
			rep, err := reportFromWire(&resp)
			out[i] = BatchResult{Report: rep, Err: err}
		}
		return nil
	})
}

// batchResultFromFrame decodes one batch response frame.
func batchResultFromFrame(payload []byte) BatchResult {
	var resp wire.LookupResponse
	if err := decodeReportFrame(payload, &resp); err != nil {
		return BatchResult{Err: err}
	}
	rep, err := reportFromWire(&resp)
	return BatchResult{Report: rep, Err: err}
}
