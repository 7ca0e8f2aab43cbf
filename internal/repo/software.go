package repo

import (
	"time"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// Software is one executable on record: the §3.3 metadata plus when the
// system first saw it.
type Software struct {
	// Meta is the executable's identity and embedded metadata.
	Meta core.SoftwareMeta
	// FirstSeenAt is when the executable first reached the server.
	FirstSeenAt time.Time
}

const softwareRecordVersion = 1

func encodeSoftware(sw Software) []byte {
	b := appendBytes([]byte{softwareRecordVersion}, sw.Meta.ID[:])
	b = appendString(b, sw.Meta.FileName)
	b = appendInt64(b, sw.Meta.FileSize)
	b = appendString(b, sw.Meta.Vendor)
	b = appendString(b, sw.Meta.Version)
	return appendTime(b, sw.FirstSeenAt)
}

func decodeSoftware(data []byte) (Software, error) {
	var sw Software
	d, err := newDecoder(data, softwareRecordVersion)
	if err != nil {
		return sw, err
	}
	id, err := d.bytesField()
	if err != nil {
		return sw, err
	}
	copy(sw.Meta.ID[:], id)
	if sw.Meta.FileName, err = d.string(); err != nil {
		return sw, err
	}
	if sw.Meta.FileSize, err = d.int64(); err != nil {
		return sw, err
	}
	if sw.Meta.Vendor, err = d.string(); err != nil {
		return sw, err
	}
	if sw.Meta.Version, err = d.string(); err != nil {
		return sw, err
	}
	if sw.FirstSeenAt, err = d.time(); err != nil {
		return sw, err
	}
	return sw, d.finish()
}

// vendorKey builds the software-by-vendor index key.
func vendorKey(vendor string, id core.SoftwareID) []byte {
	k := storedb.AppendString(nil, vendor)
	return append(k, id[:]...)
}

// recordSoftware writes a new executable's record and its vendor index
// entry inside an open write transaction. Marking it dirty is the
// caller's, whose own write may already do so.
func recordSoftware(tx *storedb.Tx, meta core.SoftwareMeta, firstSeen time.Time) error {
	rec := encodeSoftware(Software{Meta: meta, FirstSeenAt: firstSeen})
	if err := tx.MustBucket(bucketSoftware).Put(meta.ID[:], rec); err != nil || !meta.VendorKnown() {
		return err
	}
	return tx.MustBucket(bucketSwByVendor).Put(vendorKey(meta.Vendor, meta.ID), nil)
}

// UpsertSoftware records an executable if it is new; an existing record
// is left untouched (metadata is content-derived, so it cannot change
// without the ID changing). It reports whether the executable was new.
func (s *Store) UpsertSoftware(meta core.SoftwareMeta, firstSeen time.Time) (bool, error) {
	var created bool
	err := s.db.Update(func(tx *storedb.Tx) error {
		sw := tx.MustBucket(bucketSoftware)
		if _, exists := sw.Get(meta.ID[:]); exists {
			return nil
		}
		created = true
		if err := recordSoftware(tx, meta, firstSeen); err != nil {
			return err
		}
		return markSoftwareDirty(tx, meta.ID)
	})
	return created, err
}

// EnsureSoftware is UpsertSoftware behind a read transaction: an
// executable already on record, the steady state, never takes the
// write lock or appends to the WAL. The upsert re-checks under the
// write lock, so a racing duplicate is still recorded exactly once. Its
// caller is the benchmark's ledger, which times it: a vote records its
// executable in its own transaction.
func (s *Store) EnsureSoftware(meta core.SoftwareMeta, firstSeen time.Time) (bool, error) {
	var known bool
	err := s.db.View(func(tx *storedb.Tx) error {
		_, known = tx.MustBucket(bucketSoftware).Get(meta.ID[:])
		return nil
	})
	if err != nil || known {
		return false, err
	}
	return s.UpsertSoftware(meta, firstSeen)
}

// GetSoftware fetches an executable record by identity.
func (s *Store) GetSoftware(id core.SoftwareID) (Software, bool, error) {
	var sw Software
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		data, ok := tx.MustBucket(bucketSoftware).Get(id[:])
		if !ok {
			return nil
		}
		var derr error
		sw, derr = decodeSoftware(data)
		found = derr == nil
		return derr
	})
	return sw, found, err
}

// SoftwareByVendor returns the identities of every executable recorded
// under a vendor name, via the secondary index.
func (s *Store) SoftwareByVendor(vendor string) ([]core.SoftwareID, error) {
	var out []core.SoftwareID
	prefix := storedb.AppendString(nil, vendor)
	err := s.db.View(func(tx *storedb.Tx) error {
		tx.MustBucket(bucketSwByVendor).RangePrefix(prefix, func(k, _ []byte) bool {
			var id core.SoftwareID
			copy(id[:], k[len(prefix):])
			out = append(out, id)
			return true
		})
		return nil
	})
	return out, err
}

// ForEachSoftware visits every executable record in identity order,
// stopping early if fn returns false.
func (s *Store) ForEachSoftware(fn func(Software) bool) error {
	return s.db.View(func(tx *storedb.Tx) error {
		var derr error
		tx.MustBucket(bucketSoftware).ForEach(func(_, v []byte) bool {
			sw, err := decodeSoftware(v)
			if err != nil {
				derr = err
				return false
			}
			return fn(sw)
		})
		return derr
	})
}
