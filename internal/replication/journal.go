package replication

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"softreputation/internal/frame"
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
// With a Path set, each entry is appended to a file as one
// internal/frame frame holding the replication stream's envelope
// (appendEnvelope): the epoch the write was acked under, the epoch that
// superseded it, and the batch payload. Each append is fsynced — a
// quarantined write must not be lost to a second crash. Without a Path
// the journal is memory-only (simulations, in-memory replicas).
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
	return j.appendFile(ackedEpoch, supersededBy, batches)
}

// appendFile appends the batches' entries to the journal file and
// fsyncs it. It first cuts the file at its last whole entry: a crash
// mid-append leaves a torn one, and an entry behind it could never be
// read back. Creating the file also fsyncs its directory, so the file
// itself survives a power loss.
func (j *RecoveryJournal) appendFile(ackedEpoch, supersededBy uint64, batches []storedb.Batch) error {
	_, statErr := os.Stat(j.Path)
	f, err := os.OpenFile(j.Path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("replication: open journal: %w", err)
	}
	defer f.Close()
	if errors.Is(statErr, os.ErrNotExist) {
		if err := syncDir(filepath.Dir(j.Path)); err != nil {
			return fmt.Errorf("replication: sync journal dir: %w", err)
		}
	}
	_, end, err := scanJournal(f)
	if errors.As(err, new(*fs.PathError)) { // the file could not be read, not a torn entry
		return fmt.Errorf("replication: read journal: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		return fmt.Errorf("replication: cut journal's torn tail: %w", err)
	}
	var buf []byte
	for _, b := range batches {
		buf = appendEnvelope(buf, ackedEpoch, supersededBy, b)
	}
	if _, err := f.WriteAt(buf, end); err != nil {
		return fmt.Errorf("replication: append journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("replication: sync journal: %w", err)
	}
	return nil
}

// syncDir fsyncs dir, so a file just created in it survives a power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
// ends it at the last whole entry, like WAL recovery.
func ReadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("replication: open journal: %w", err)
	}
	defer f.Close()
	entries, _, _ := scanJournal(f)
	return entries, nil
}

// scanJournal reads journal entries from r up to the first frame that is
// torn, corrupt or not an entry. It returns them, the offset where the
// last one ends, and what ended the scan: io.EOF at a clean end.
func scanJournal(r io.Reader) (entries []JournalEntry, end int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		acked, superseded, payload, err := readEnvelope(br)
		if err != nil {
			return entries, end, err
		}
		b, err := storedb.DecodeBatch(payload)
		if err != nil {
			return entries, end, err
		}
		entries = append(entries, JournalEntry{AckedEpoch: acked, SupersededBy: superseded, Batch: b})
		end += frame.HeaderSize + envelopeSize + int64(len(payload))
	}
}
