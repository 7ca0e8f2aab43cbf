package storedb

import (
	"encoding/binary"
	"hash/fnv"
)

// History digest chain. Every committed batch extends a running 64-bit
// hash: digest(n) = H(digest(n-1) || payload(n)), where payload is the
// batch's deterministic WAL encoding. Two databases that hold the same
// digest at the same sequence number therefore hold byte-identical
// committed histories up to it — which is exactly what a replica needs
// to prove before resuming a WAL tail after a partition. The chain is
// anchored in the snapshot file (digest at the snapshot's sequence) so
// it survives compaction and restarts, and the replication frame format
// carries each batch's predecessor digest so divergence is detected
// before a foreign batch is applied onto a forked prefix.

// chainStep folds one batch payload into the running history digest.
// FNV-1a/64: not cryptographic, but the adversary here is a network
// partition, not a forger, and the CRC-framed transport already rejects
// corruption.
func chainStep(prev uint64, payload []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], prev)
	h.Write(b[:])
	h.Write(payload)
	return h.Sum64()
}

// ChainDigest returns the history digest at the last committed
// sequence number.
func (db *DB) ChainDigest() uint64 { return db.chainDigest.Load() }

// ChainPosition returns a consistent (seq, digest) pair: the digest is
// the chain value at exactly the returned sequence. Seq() and
// ChainDigest() read the same values but can interleave with a commit;
// replication headers use this so a replica never compares its digest
// against a mismatched sequence.
func (db *DB) ChainPosition() (seq, digest uint64) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.chainSeq, db.chainDigest.Load()
}

// DigestAt returns the history digest at the given sequence number, if
// the database can still derive it: from the current position, the
// in-memory tail ring, the snapshot anchor, or by chaining over the
// on-disk WAL. ok is false when the position predates what is retained.
func (db *DB) DigestAt(seq uint64) (digest uint64, ok bool) {
	if db.closed.Load() {
		return 0, false
	}
	db.replMu.Lock()
	if seq == db.chainSeq {
		d := db.chainDigest.Load()
		db.replMu.Unlock()
		return d, true
	}
	if db.recent != nil {
		if d, found := db.recent.digestAt(seq); found {
			db.replMu.Unlock()
			return d, true
		}
	}
	db.replMu.Unlock()
	snapSeq := db.snapSeq.Load()
	if seq == snapSeq {
		return db.snapDigest.Load(), true
	}
	if db.opts.Dir == "" || seq < snapSeq || seq > db.seq.Load() {
		return 0, false
	}
	d := db.snapDigest.Load()
	found := false
	_, err := scanWalFrames(db.walPath(), func(b Batch, payload []byte, _ int64) error {
		if b.Seq <= snapSeq {
			return nil
		}
		d = chainStep(d, payload)
		if b.Seq == seq {
			found = true
			return errScanDone
		}
		return nil
	})
	if err != nil && err != errScanDone {
		return 0, false
	}
	return d, found
}
