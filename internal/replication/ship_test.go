package replication

import (
	"bytes"
	"context"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"

	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// publisherTransport answers a replica's requests by calling the
// publisher's handlers in process: the bytes are those of the HTTP
// exchange, without a socket's allocations in the measurement.
type publisherTransport struct{ pub *Publisher }

func (p publisherTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(make([]byte, 0, 1<<16))
	switch req.URL.Path {
	case wire.PathReplWAL:
		p.pub.ServeWAL(rec, req)
	case wire.PathReplDigest:
		p.pub.ServeDigest(rec, req)
	default:
		p.pub.ServeSnapshot(rec, req)
	}
	return rec.Result(), nil
}

// TestReplWALBodyGolden pins the /repl/wal response body for a fixed
// three-batch history (a put, an overwrite, a delete), as hex taken at
// the commit before storedb's WAL began encoding Batch directly. Each
// frame's batch payload is the WAL payload, so a mixed-version primary
// and replica keep replicating only while these bytes do not move.
func TestReplWALBodyGolden(t *testing.T) {
	const want = "0000002c333dc40b00000000000000000000000000000000" + "0000000000000001010109730070726f6772616d0773636f72653d37" +
		"0000002c54a6edb10000000000000000fc8f19deb97efd21" + "0000000000000002010109730070726f6772616d0773636f72653d39" +
		"000000244d98d6b8000000000000000002f9bcf9f7a20df9" + "0000000000000003010209730070726f6772616d"
	primary, _, pub := newPrimary(t, 16)
	put(t, primary, "s", "program", "score=7")
	put(t, primary, "s", "program", "score=9")
	if err := primary.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket("s").Delete([]byte("program"))
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	pub.ServeWAL(rec, httptest.NewRequest(http.MethodGet, wire.PathReplWAL+"?from=0&id=golden", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := hex.EncodeToString(rec.Body.Bytes()); got != want {
		t.Errorf("/repl/wal body moved:\n got %s\nwant %s", got, want)
	}
}

// TestShipBatchAllocPin pins what one more batch costs on its way from
// a primary's ring through Publisher.ServeWAL and a replica's pull into
// ApplyBatch: the difference between pulls of nine batches and pulls of
// one, so that what a pull costs whatever it carries cancels out. The
// batches overwrite one key, which keeps the replica's tree at a single
// leaf.
func TestShipBatchAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs, many = 50, 9
	primary, _, pub := newPrimary(t, 1024)
	for i := 0; i < (runs+1)*(1+many); i++ {
		put(t, primary, "s", "program", "score=7")
	}
	rep := &Replica{DB: newReplicaDB(t), ID: "pin", Primary: "http://primary",
		Client: &http.Client{Transport: publisherTransport{pub}}}
	pull := func(max int) float64 {
		rep.MaxBatches = max
		return testing.AllocsPerRun(runs, func() {
			before := rep.DB.Seq()
			if _, _, err := rep.pullOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := rep.DB.Seq() - before; n != uint64(max) {
				t.Fatalf("pull of %d applied %d", max, n)
			}
		})
	}
	one, nine := pull(1), pull(many)
	perBatch := (nine - one) / (many - 1)
	// Measured 10: out, the payload EncodeBatch builds, the envelope
	// around it and the frame header; in, the frame the replica reads,
	// the ops DecodeBatch lists, the root ApplyBatch publishes (the tree
	// value, its one leaf and the leaf's slab, into which the op's bytes
	// are copied) and the in-memory replica's frame buffer. Unchanged
	// since leaves became slabs (then: the leaf's items). Before the WAL encoded Batch directly: 14,
	// one []walOp or []Op conversion each in EncodeBatch, DecodeBatch,
	// ApplyBatch and the replica's ring.
	const pin = 10
	t.Logf("one batch shipped and applied: %.2f allocs (pin %d); a pull of one: %.0f", perBatch, pin, one)
	if perBatch > pin {
		t.Errorf("one batch shipped and applied: %.2f allocs, pinned at %d", perBatch, pin)
	}
}
