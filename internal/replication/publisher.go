package replication

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// HeaderPrimarySeq carries the primary's current sequence number on
// every replication response, so replicas can compute their lag even
// when a pull returns no batches.
const HeaderPrimarySeq = "X-Primary-Seq"

// HeaderPrimaryEpoch carries the primary's promotion epoch on every
// replication response. A replica that has followed a higher epoch
// refuses the stream: the sender is a deposed primary.
const HeaderPrimaryEpoch = "X-Primary-Epoch"

// HeaderPrimaryDigest carries the primary's history digest at exactly
// HeaderPrimarySeq (the pair is read atomically). A caught-up replica
// compares it against its own chain to detect divergence even when no
// batches flow.
const HeaderPrimaryDigest = "X-Primary-Digest"

// defaultMaxBatches bounds one /repl/wal response so a freshly resumed
// replica cannot stall the primary on a single huge reply; the replica
// just pulls again.
const defaultMaxBatches = 512

// Publisher serves a primary's log and snapshots to pulling replicas,
// and tracks each replica's acknowledged progress for /replstatus.
type Publisher struct {
	db *storedb.DB

	// Now supplies timestamps for replica last-poll tracking; nil means
	// time.Now. Simulations inject a virtual clock.
	Now func() time.Time

	mu       sync.Mutex
	replicas map[string]*replicaTrack
}

type replicaTrack struct {
	ackSeq    uint64
	lastPoll  time.Time
	snapshots int
}

// NewPublisher returns a publisher exporting db.
func NewPublisher(db *storedb.DB) *Publisher {
	return &Publisher{db: db, replicas: make(map[string]*replicaTrack)}
}

func (p *Publisher) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// ServeSnapshot streams a full snapshot (GET /repl/snapshot). The
// stream is the snapshot file layout, CRC trailer included, so the
// replica verifies integrity before installing anything.
func (p *Publisher) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	p.note(r.URL.Query().Get("id"), 0, true)
	w.Header().Set("Content-Type", "application/octet-stream")
	p.setPositionHeaders(w)
	// Errors past this point are mid-stream; the connection just breaks
	// and the replica's CRC check rejects the partial snapshot.
	_, _ = p.db.WriteSnapshotTo(w)
}

// ServeWAL streams framed batches after ?from= (GET /repl/wal). When
// the requested position has been compacted away it answers 410 with
// code "compacted": the replica must bootstrap from a snapshot.
func (p *Publisher) ServeWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, wire.CodeBadRequest, "bad from parameter")
		return
	}
	max := defaultMaxBatches
	if m, merr := strconv.Atoi(q.Get("max")); merr == nil && m > 0 && m < max {
		max = m
	}

	p.note(q.Get("id"), from, false)

	w.Header().Set("Content-Type", "application/octet-stream")
	p.setPositionHeaders(w)
	epoch := p.db.Epoch()
	wroteAny := false
	var buf []byte
	err = p.db.SinceWithDigest(from, max, func(b storedb.Batch, prev uint64) error {
		wroteAny = true
		buf = appendEnvelope(buf[:0], epoch, prev, b)
		_, err := w.Write(buf)
		return err
	})
	if errors.Is(err, storedb.ErrCompacted) && !wroteAny {
		writeWireError(w, http.StatusGone, wire.CodeCompacted, "requested batches compacted; bootstrap from snapshot")
		return
	}
	// A mid-stream error just truncates the response; the replica's
	// frame CRC rejects the tail and it re-pulls from its last applied
	// sequence number.
}

// ServeDigest answers GET /repl/digest?seq=N with the history digest at
// sequence N, so a reconnecting replica can binary-search (or walk) for
// the last position where the two histories agree. Known=false means
// the position has been compacted away and only a snapshot bootstrap
// can repair the replica.
func (p *Publisher) ServeDigest(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, wire.CodeBadRequest, "bad seq parameter")
		return
	}
	d, ok := p.db.DigestAt(seq)
	w.Header().Set("Content-Type", wire.ContentType)
	_ = wire.Encode(w, &wire.ReplDigestResponse{
		Seq:    seq,
		Digest: d,
		Known:  ok,
		Epoch:  p.db.Epoch(),
	})
}

// setPositionHeaders stamps the primary's (seq, digest) pair — read
// atomically so they describe the same history point — and its epoch
// onto a replication response.
func (p *Publisher) setPositionHeaders(w http.ResponseWriter) {
	seq, digest := p.db.ChainPosition()
	w.Header().Set(HeaderPrimarySeq, strconv.FormatUint(seq, 10))
	w.Header().Set(HeaderPrimaryDigest, strconv.FormatUint(digest, 10))
	w.Header().Set(HeaderPrimaryEpoch, strconv.FormatUint(p.db.Epoch(), 10))
}

// Status reports each known replica's progress relative to the
// primary's current sequence number.
func (p *Publisher) Status() []wire.ReplicaStatusInfo {
	seq := p.db.Seq()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]wire.ReplicaStatusInfo, 0, len(p.replicas))
	for id, t := range p.replicas {
		lag := uint64(0)
		if seq > t.ackSeq {
			lag = seq - t.ackSeq
		}
		info := wire.ReplicaStatusInfo{ID: id, AckSeq: t.ackSeq, Lag: lag, Snapshots: t.snapshots}
		if !t.lastPoll.IsZero() {
			info.LastPoll = t.lastPoll.UTC().Format(wire.TimeFormat)
		}
		out = append(out, info)
	}
	return out
}

// note records a replica poll. A replica's ?from= value is its last
// applied sequence number, i.e. an acknowledgement of everything at or
// below it.
func (p *Publisher) note(id string, ack uint64, snapshot bool) {
	if id == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.replicas[id]
	if t == nil {
		t = &replicaTrack{}
		p.replicas[id] = t
	}
	if ack > t.ackSeq {
		t.ackSeq = ack
	}
	t.lastPoll = p.now()
	if snapshot {
		t.snapshots++
	}
}

func writeWireError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	_ = wire.Encode(w, &wire.ErrorResponse{Code: code, Message: msg})
}
