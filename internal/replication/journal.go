package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"softreputation/internal/storedb"
)

// RecoveryJournal quarantines writes that were acknowledged by a
// deposed primary but never reached the epoch that superseded it. When
// divergence repair truncates a replica's forked tail (or discards it
// wholesale for a snapshot bootstrap), the removed batches land here:
// they carried real user intent and a real acknowledgement, so they are
// neither silently dropped (the user was told the write succeeded) nor
// silently kept (the new primary's history says otherwise). An operator
// reviews them with `reputectl journal` and replays or discards each.
//
// With a Path set, entries are appended to a file using the same
// length+CRC framing as the replication stream, each payload being
//
//	[8 bytes epoch the write was acked under][8 bytes epoch that
//	superseded it][batch payload]
//
// and fsynced per append — a quarantined write must not be lost to a
// second crash. Without a Path the journal is memory-only (simulations,
// in-memory replicas).
type RecoveryJournal struct {
	// Path is the journal file; empty means memory-only.
	Path string

	mu      sync.Mutex
	entries []JournalEntry
}

// JournalEntry is one quarantined batch.
type JournalEntry struct {
	// AckedEpoch is the promotion epoch the batch was committed under.
	AckedEpoch uint64
	// SupersededBy is the epoch whose history displaced it.
	SupersededBy uint64
	// Batch is the displaced write, exactly as it was committed.
	Batch storedb.Batch
}

// Quarantine records batches displaced from the local history: they
// were committed under ackedEpoch and displaced by supersededBy's
// history. File-backed journals append and fsync before returning.
func (j *RecoveryJournal) Quarantine(ackedEpoch, supersededBy uint64, batches []storedb.Batch) error {
	if len(batches) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, b := range batches {
		j.entries = append(j.entries, JournalEntry{
			AckedEpoch:   ackedEpoch,
			SupersededBy: supersededBy,
			Batch:        b,
		})
	}
	if j.Path == "" {
		return nil
	}
	f, err := os.OpenFile(j.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("replication: open journal: %w", err)
	}
	defer f.Close()
	for _, b := range batches {
		payload := make([]byte, 16)
		binary.BigEndian.PutUint64(payload[0:8], ackedEpoch)
		binary.BigEndian.PutUint64(payload[8:16], supersededBy)
		payload = append(payload, storedb.EncodeBatch(b)...)
		if err := writeFrame(f, payload); err != nil {
			return fmt.Errorf("replication: append journal: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("replication: sync journal: %w", err)
	}
	return nil
}

// Len reports how many batches are quarantined.
func (j *RecoveryJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Entries returns a copy of the quarantined batches in arrival order.
// Test seam: no other reader sees a memory-only journal's batches.
func (j *RecoveryJournal) Entries() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]JournalEntry(nil), j.entries...)
}

// ReadJournal loads a recovery journal file written by Quarantine. A
// missing file yields an empty journal; a torn tail (crash mid-append)
// truncates at the last good frame, like WAL recovery.
func ReadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("replication: open journal: %w", err)
	}
	defer f.Close()
	var out []JournalEntry
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		payload, ferr := readFrame(br)
		if ferr == io.EOF || errors.Is(ferr, ErrBadFrame) {
			return out, nil
		}
		if ferr != nil {
			return out, ferr
		}
		if len(payload) < 16 {
			return out, nil
		}
		b, derr := storedb.DecodeBatch(payload[16:])
		if derr != nil {
			return out, nil
		}
		out = append(out, JournalEntry{
			AckedEpoch:   binary.BigEndian.Uint64(payload[0:8]),
			SupersededBy: binary.BigEndian.Uint64(payload[8:16]),
			Batch:        b,
		})
	}
}
