// Client side of the binary protocol: the three operations that have
// frames and their codec, the per-endpoint "no session here" pin that
// invoke's format stage learns and reads, and the batched lookup call.
// The frames travel on sessions (session.go).
package client

import (
	"context"
	"fmt"

	"softreputation/internal/core"
	"softreputation/internal/wire"
)

// maxFramesBytes bounds an answer: up to MaxBatchLookups report frames,
// each bounded by MaxBinaryFrame.
const maxFramesBytes = 8 << 20

// EnableBinaryProtocol opts this client into the compact binary
// framing, returning the API for chaining. It picks the sessions' codec
// only: an endpoint that refuses a session gets XML over HTTP either
// way, and is pinned so later requests skip the failed upgrade.
func (a *API) EnableBinaryProtocol() *API {
	a.protoMu.Lock()
	a.binary = true
	a.protoMu.Unlock()
	return a
}

// format reports the client's codec and whether base may carry a session.
func (a *API) format(base string) (binary, session bool) {
	a.protoMu.Lock()
	defer a.protoMu.Unlock()
	return a.binary, !a.noSession[base]
}

// pinNoSession records that base refused a session.
func (a *API) pinNoSession(base string) {
	a.protoMu.Lock()
	if a.noSession == nil {
		a.noSession = make(map[string]bool)
	}
	a.noSession[base] = true
	a.protoMu.Unlock()
}

// The operations with a binary form, which ride sessions. The batch sends
// a *batchRequest and fills a []BatchResult; its endpoint is binary-only,
// so in XML it degrades to single lookups.
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

// readFrames fills resp from the frames of a 2xx answer: a report, a
// vote ack, or for a batch one report or error frame per entry, in
// request order.
func readFrames(body []byte, resp interface{}) error {
	for n := 0; ; n++ {
		if len(body) == 0 {
			if out, batch := resp.([]BatchResult); batch && n != len(out) {
				return fmt.Errorf("batch: %d frames for %d entries", n, len(out))
			}
			return nil
		}
		payload, rest, err := wire.SplitBinaryFrame(body)
		if err != nil {
			return err
		}
		body = rest
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
// round trips as possible: one batch frame per MaxBatchLookups chunk in
// binary on an endpoint with sessions, sequential single lookups
// otherwise. The returned slice is index-aligned with metas. The error
// is the transport-level failure that prevented results; per-entry
// failures live in the results.
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

// lookupEach is the batch in XML: sequential single lookups against that
// endpoint, each on a session unless the endpoint refuses one. An entry
// whose answer says the endpoint cannot serve now aborts the batch, as it
// would a single lookup: so the sweep can move on, or, for a 429, so the
// executor backs off before the batch is sent again. Application answers
// are per-entry.
func (a *API) lookupEach(ctx context.Context, base string, req, resp interface{}) error {
	b, out := req.(*batchRequest), resp.([]BatchResult)
	for i, info := range b.infos {
		var one wire.LookupResponse
		v, err := a.attempt(ctx, opLookup, base, &wire.LookupRequest{Software: info, Feeds: b.feeds}, &one)
		if v.act == actSweepOn || v.act == actRetryHere {
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
