package storedb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"softreputation/internal/frame"
)

// Snapshot files hold a full, sorted dump of the tree so that the WAL can
// be truncated during compaction. Layout (version 3):
//
//	[8 bytes magic "SREPSNAP"][4 bytes version]
//	header block:  one internal/frame frame, payload
//	               [8 bytes sequence][8 bytes history digest][8 bytes entry count]
//	bucket blocks: one frame each, payload
//	               [uvarint key len][key][uvarint value len][value] ...
//
// Every block carries its own checksum, so corruption is localized: a
// scrub names the damaged block, and a decode rejects a block before
// trusting any entry in it. Blocks hold whole entries (an entry never
// spans blocks), the writer targets snapshotBlockTarget bytes per block,
// and no block may exceed maxSnapshotBlock, which with the bytes left in
// the file bounds the length a reader accepts.
//
// Any other version is rejected as ErrCorrupt before a single length
// field is read.
//
// A snapshot is written to a temporary file, synced, and renamed into
// place, then the directory is synced so the rename itself survives a
// power loss — a rename is atomic but not durable until its parent
// directory reaches disk, and compaction swaps the WAL right after, so
// losing the rename would lose the database.
//
// The same byte layout doubles as the replication bootstrap stream: a
// fresh or hopelessly lagged replica downloads one snapshot stream and
// then tails WAL batches from its sequence number. Corruption repair
// reuses the stream in the other direction — a corrupt primary restores
// itself from a healthy replica's snapshot.

var snapshotMagic = [8]byte{'S', 'R', 'E', 'P', 'S', 'N', 'A', 'P'}

const (
	snapshotVersion = 3

	// snapshotPreambleLen is the magic plus the version field.
	snapshotPreambleLen = 8 + 4
	// snapshotHeaderLen is the payload length of the header block.
	snapshotHeaderLen = 24
	// snapshotBlockTarget is the payload size the writer aims for.
	snapshotBlockTarget = 64 << 10
	// maxSnapshotBlock caps a block payload on both sides: the writer
	// never emits more (a single entry larger than this is refused) and
	// the reader never allocates more from a length field.
	maxSnapshotBlock = 1 << 26
)

// encodeSnapshot writes the full v3 snapshot layout for the given tree,
// sequence number, and history digest to w.
func encodeSnapshot(w io.Writer, t tree, seq, digest uint64) error {
	var hdr [snapshotHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], seq)
	binary.BigEndian.PutUint64(hdr[8:16], digest)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(t.Len()))
	pre := binary.BigEndian.AppendUint32(snapshotMagic[:], snapshotVersion)
	if _, err := w.Write(frame.Append(pre, hdr[:])); err != nil {
		return err
	}

	// block is the frame being filled; its payload starts past the header.
	block := frame.Begin(make([]byte, 0, frame.HeaderSize+snapshotBlockTarget+4096))
	flush := func() error {
		frame.End(block)
		_, err := w.Write(block)
		block = frame.Begin(block[:0])
		return err
	}
	werr := error(nil)
	t.Ascend(nil, nil, func(k, v []byte) bool {
		need := 2*binary.MaxVarintLen64 + len(k) + len(v)
		if need > maxSnapshotBlock {
			werr = fmt.Errorf("entry of %d bytes exceeds max snapshot block", need)
			return false
		}
		if n := len(block) - frame.HeaderSize; n > 0 && n+need > maxSnapshotBlock {
			if werr = flush(); werr != nil {
				return false
			}
		}
		block = binary.AppendUvarint(block, uint64(len(k)))
		block = append(block, k...)
		block = binary.AppendUvarint(block, uint64(len(v)))
		block = append(block, v...)
		if len(block)-frame.HeaderSize >= snapshotBlockTarget {
			werr = flush()
		}
		return werr == nil
	})
	if werr == nil && len(block) > frame.HeaderSize {
		werr = flush()
	}
	if werr != nil {
		return fmt.Errorf("storedb: write snapshot: %w", werr)
	}
	return nil
}

func writeSnapshot(dir string, t tree, seq, digest uint64) (err error) {
	tmp := filepath.Join(dir, "SNAPSHOT.tmp")
	final := filepath.Join(dir, "SNAPSHOT")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("storedb: create snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	bw := bufio.NewWriterSize(f, 1<<16)
	if err = encodeSnapshot(bw, t, seq, digest); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("storedb: flush snapshot: %w", err)
	}
	if err = fsSync(f, "snapshot"); err != nil {
		return fmt.Errorf("storedb: sync snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("storedb: close snapshot: %w", err)
	}
	if err = fsRename(tmp, final); err != nil {
		return fmt.Errorf("storedb: install snapshot: %w", err)
	}
	// Make the rename durable before the caller swaps the WAL the
	// snapshot replaces.
	if err = fsSyncDir(dir); err != nil {
		return fmt.Errorf("storedb: sync snapshot dir: %w", err)
	}
	return nil
}

// snapshotReader tracks how many bytes remain readable so a length
// field taken from the stream is bounded by them.
type snapshotReader struct {
	br     *bufio.Reader
	budget int64  // bytes left
	arena  []byte // payloads are read into its spare capacity
}

// block reads one block's payload (frame.Read). A payload read into the
// arena extends it: the arena is as long as the bytes left, so every
// payload fits.
func (s *snapshotReader) block() ([]byte, error) {
	n := len(s.arena)
	payload, err := frame.Read(s.br, s.arena[n:n], int(min(maxSnapshotBlock, s.budget-frame.HeaderSize)))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	s.budget -= int64(frame.HeaderSize + len(payload))
	if s.arena != nil {
		s.arena = s.arena[:n+len(payload)]
	}
	return payload[:len(payload):len(payload)], nil
}

// parseSnapshotHeader validates the v3 header block payload.
func parseSnapshotHeader(payload []byte) (seq, digest, count uint64, err error) {
	if len(payload) != snapshotHeaderLen {
		return 0, 0, 0, fmt.Errorf("header block is %d bytes, want %d", len(payload), snapshotHeaderLen)
	}
	seq = binary.BigEndian.Uint64(payload[0:8])
	digest = binary.BigEndian.Uint64(payload[8:16])
	count = binary.BigEndian.Uint64(payload[16:24])
	return seq, digest, count, nil
}

// snapshotEntries walks the packed entries of one block payload,
// calling fn with where in payload each starts and ends. It enforces the
// same bounded-length discipline as the block framing — every length is
// checked against the bytes actually present before it is used — and
// the order a tree is written in: each key above the one before, *last
// (nil before a stream's first).
func snapshotEntries(payload []byte, last *[]byte, fn func(start, end int) error) (int, error) {
	n := 0
	for p := payload; len(p) > 0; n++ {
		start := len(payload) - len(p)
		klen, w := binary.Uvarint(p)
		if w <= 0 || klen > uint64(len(p)-w) {
			return n, fmt.Errorf("bad key length")
		}
		key := p[w : w+int(klen) : w+int(klen)]
		p = p[w+int(klen):]
		vlen, w := binary.Uvarint(p)
		if w <= 0 || vlen > uint64(len(p)-w) {
			return n, fmt.Errorf("bad value length")
		}
		p = p[w+int(vlen):]
		if *last != nil && bytes.Compare(key, *last) <= 0 {
			return n, errors.New("keys not in strictly ascending order")
		}
		*last = key
		if err := fn(start, len(payload)-len(p)); err != nil {
			return n, err
		}
	}
	return n, nil
}

// readSnapshotPreamble consumes the magic and version fields and
// rejects anything but the current format, so no caller ever trusts a
// length field laid out by a version it does not know.
func readSnapshotPreamble(r io.Reader) error {
	var pre [snapshotPreambleLen]byte
	magic, version := pre[:len(snapshotMagic)], pre[len(snapshotMagic):]
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, snapshotMagic[:]) {
		return fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, version); err != nil {
		return fmt.Errorf("%w: truncated snapshot header", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(version); v != snapshotVersion {
		return fmt.Errorf("%w: unsupported snapshot version %d", ErrCorrupt, v)
	}
	return nil
}

// readSnapshot reads the size bytes of one snapshot from r and
// verifies them as it goes: the preamble, the header block, and bucket
// blocks up to the header's count of entries, each block's CRC checked
// before any entry in it is trusted and every entry's lengths and key
// order. size bounds every length field against the bytes actually
// present, exactly as scanWalFrames bounds WAL frame lengths. With build
// it reads the payloads into one buffer (a block each would round each
// up to whole pages) and loads the entries into a tree whose leaves are
// slices of it (loader), so the buffer lives while any leaf aliases
// it. It returns the header's sequence and digest, the blocks
// it verified and, on corruption, the unit that failed.
func readSnapshot(r io.Reader, size int64, build bool) (t tree, seq, digest uint64, blocks int, unit string, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err = readSnapshotPreamble(br); err != nil {
		return t, 0, 0, 0, UnitSnapshotHeader, err
	}
	sr := &snapshotReader{br: br, budget: size - snapshotPreambleLen}
	hdr, err := sr.block()
	var count uint64
	if err == nil {
		seq, digest, count, err = parseSnapshotHeader(hdr)
	}
	if err != nil {
		return t, 0, 0, 0, UnitSnapshotHeader, fmt.Errorf("%w: snapshot header: %v", ErrCorrupt, err)
	}
	var ld *loader
	if build {
		sr.arena = make([]byte, 0, sr.budget)
		ld = newLoader(count, sr.arena[:cap(sr.arena)])
	}
	var got uint64
	var last []byte
	for blocks = 1; got < count; blocks++ {
		payload, err := sr.block()
		n, at := 0, len(sr.arena)-len(payload) // where in the arena payload lies, when building
		if err == nil {
			n, err = snapshotEntries(payload, &last, func(start, end int) error {
				if got++; got > count {
					return fmt.Errorf("more entries than header count %d", count)
				}
				if ld != nil {
					ld.add(at+start, at+end)
				}
				return nil
			})
		}
		if err == nil && n == 0 {
			err = errors.New("no entries")
		}
		if err != nil {
			return t, seq, digest, blocks, UnitSnapshotBlock, fmt.Errorf("%w: snapshot block %d: %v", ErrCorrupt, blocks, err)
		}
	}
	if ld != nil {
		if t = ld.tree(); uint64(t.Len()) != count {
			return tree{}, seq, digest, blocks, UnitSnapshotBlock, fmt.Errorf("%w: %d keys under a header count of %d", ErrCorrupt, t.Len(), count)
		}
	}
	return t, seq, digest, blocks, "", nil
}

// decodeSnapshot loads one snapshot from r (readSnapshot). size is its
// size when known (a file) and <= 0 for a network stream, which is read
// whole first (replication bootstrap and repair, from a peer).
func decodeSnapshot(r io.Reader, size int64) (tree, uint64, uint64, error) {
	if size <= 0 {
		data, err := io.ReadAll(r)
		if err != nil {
			return tree{}, 0, 0, fmt.Errorf("%w: read snapshot stream: %v", ErrCorrupt, err)
		}
		r, size = bytes.NewReader(data), int64(len(data))
	}
	t, seq, digest, _, _, err := readSnapshot(r, size, true)
	return t, seq, digest, err
}

// loadSnapshot reads the snapshot in dir, if present. Each block's
// checksum is verified before any entry in it is trusted. It returns the
// restored tree, its sequence number, and its history digest anchor; a
// missing snapshot yields an empty tree at seq 0 with a zero digest.
func loadSnapshot(dir string) (tree, uint64, uint64, error) {
	path := filepath.Join(dir, "SNAPSHOT")
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return tree{}, 0, 0, nil
	}
	if err != nil {
		return tree{}, 0, 0, fmt.Errorf("storedb: open snapshot: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return tree{}, 0, 0, fmt.Errorf("storedb: stat snapshot: %w", err)
	}
	return decodeSnapshot(f, info.Size())
}

// scrubSnapshotFile verifies the snapshot at path (readSnapshot)
// without building a tree. It returns the header's sequence and digest,
// the number of blocks verified, and on corruption the unit that failed
// (UnitSnapshotHeader or UnitSnapshotBlock) alongside the error.
func scrubSnapshotFile(path string) (seq, digest uint64, blocks int, unit string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, UnitSnapshotHeader, fmt.Errorf("storedb: open snapshot for scrub: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, UnitSnapshotHeader, fmt.Errorf("storedb: stat snapshot for scrub: %w", err)
	}
	_, seq, digest, blocks, unit, err = readSnapshot(f, info.Size(), false)
	return seq, digest, blocks, unit, err
}
