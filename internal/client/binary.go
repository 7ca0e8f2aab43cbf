// Client side of the binary protocol: the three operations that have
// frames and their codec, the per-endpoint XML-only pin that invoke's
// format stage learns and reads, and the batched lookup call.
package client

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"softreputation/internal/core"
	"softreputation/internal/wire"
)

// maxFramesBytes bounds a binary response body: up to MaxBatchLookups
// report frames, each individually bounded by the frame reader.
const maxFramesBytes = 8 << 20

// EnableBinaryProtocol opts this client into the compact binary
// framing, returning the API for chaining. Endpoints that do not speak
// it fall back to XML automatically and are pinned so later requests
// skip the failed negotiation.
func (a *API) EnableBinaryProtocol() *API {
	a.protoMu.Lock()
	if a.xmlOnly == nil {
		a.xmlOnly = make(map[string]bool)
	}
	a.protoMu.Unlock()
	return a
}

// useBinary reports whether base should be spoken to in binary.
func (a *API) useBinary(base string) bool {
	a.protoMu.Lock()
	defer a.protoMu.Unlock()
	return a.xmlOnly != nil && !a.xmlOnly[base]
}

// pinXMLOnly records that base refused the binary protocol.
func (a *API) pinXMLOnly(base string) {
	a.protoMu.Lock()
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

// The operations with a binary form. The batch sends a *batchRequest and
// fills a []BatchResult; its endpoint is binary-only, so on an XML-only
// endpoint it degrades to single lookups.
var (
	opLookup      = op{path: wire.PathLookup, frames: true}
	opVote        = op{path: wire.PathVote, frames: true}
	opLookupBatch = op{path: wire.PathLookupBatch, frames: true, xml: (*API).lookupEach}
)

// encodeFrame renders the request of one of those operations as its frame.
func encodeFrame(req interface{}) []byte {
	switch r := req.(type) {
	case *wire.LookupRequest:
		return wire.EncodeBinaryLookup(r)
	case *wire.VoteRequest:
		return wire.EncodeBinaryVote(r)
	case *batchRequest:
		return wire.EncodeBinaryLookupBatch(r.infos, r.feeds)
	}
	panic(fmt.Sprintf("client: no binary frame for %T", req))
}

// readFrames fills resp from the frames of a 2xx body: a report, a vote
// ack, or for a batch one report or error frame per entry, in request
// order.
func readFrames(body io.Reader, resp interface{}) error {
	br := bufio.NewReader(body)
	for n := 0; ; n++ {
		payload, err := wire.ReadBinaryFrame(br)
		if err == io.EOF {
			if out, batch := resp.([]BatchResult); batch && n != len(out) {
				return fmt.Errorf("batch: %d frames for %d entries", n, len(out))
			}
			return nil
		}
		if err != nil {
			return err
		}
		switch r := resp.(type) {
		case *wire.LookupResponse:
			err = decodeReportFrame(payload, r)
		case *wire.VoteResponse:
			*r, err = wire.DecodeBinaryVoteAck(payload)
		case []BatchResult:
			if n >= len(r) {
				return fmt.Errorf("batch: more frames than entries")
			}
			var one wire.LookupResponse
			r[n] = batchResult(&one, decodeReportFrame(payload, &one))
		}
		if err != nil {
			return err
		}
	}
}

// decodeReportFrame decodes a report frame into resp, surfacing an
// error frame (a per-entry failure on the batch path) as the error it
// carries.
func decodeReportFrame(payload []byte, resp *wire.LookupResponse) error {
	if wire.BinaryFrameType(payload) == wire.BinFrameError {
		werr, err := wire.DecodeBinaryError(payload)
		if err != nil {
			return err
		}
		return werr
	}
	var err error
	*resp, err = wire.DecodeBinaryReport(payload)
	return err
}

// BatchResult is one entry's outcome in a LookupBatch: the report, or
// the per-entry error the server answered for it. Per-entry failures do
// not fail the batch — the other entries' reports are still valid.
type BatchResult struct {
	Report Report
	Err    error
}

// batchRequest is one ≤MaxBatchLookups chunk of a LookupBatch.
type batchRequest struct {
	infos []wire.SoftwareInfo
	feeds []string
}

// LookupBatch fetches reports for several executables in as few wire
// round trips as possible: one batch frame per MaxBatchLookups chunk on
// a binary endpoint, sequential single lookups on an XML-only one. The
// returned slice is index-aligned with metas. The error is the
// transport-level failure that prevented results; per-entry failures
// live in the results.
func (a *API) LookupBatch(ctx context.Context, metas []core.SoftwareMeta, feeds ...string) ([]BatchResult, error) {
	results := make([]BatchResult, len(metas))
	infos := make([]wire.SoftwareInfo, len(metas))
	for i, m := range metas {
		infos[i] = metaToWire(m)
	}
	for start := 0; start < len(metas); start += wire.MaxBatchLookups {
		end := min(start+wire.MaxBatchLookups, len(metas))
		err := a.invoke(ctx, opLookupBatch, &batchRequest{infos[start:end], feeds}, results[start:end])
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// lookupEach is the batch on an endpoint that takes no frames: sequential
// single lookups against that endpoint. An entry whose answer says the
// endpoint cannot serve aborts the batch so the sweep can move on;
// application answers are per-entry.
func (a *API) lookupEach(ctx context.Context, base string, req, resp interface{}) error {
	b, out := req.(*batchRequest), resp.([]BatchResult)
	for i, info := range b.infos {
		var one wire.LookupResponse
		body, err := encodeXML(&wire.LookupRequest{Software: info, Feeds: b.feeds})
		if err == nil {
			err = a.send(ctx, base, wire.PathLookup, false, body, &one)
		}
		if disposition(err, false).act == actSweepOn {
			return err
		}
		out[i] = batchResult(&one, err)
	}
	return nil
}

// batchResult is one entry's outcome: the error that answered it, or
// the report in resp.
func batchResult(resp *wire.LookupResponse, err error) BatchResult {
	if err != nil {
		return BatchResult{Err: err}
	}
	rep, err := reportFromWire(resp)
	return BatchResult{Report: rep, Err: err}
}
