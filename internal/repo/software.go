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
	e := newEncoder(softwareRecordVersion)
	e.putBytes(sw.Meta.ID[:])
	e.putString(sw.Meta.FileName)
	e.putInt64(sw.Meta.FileSize)
	e.putString(sw.Meta.Vendor)
	e.putString(sw.Meta.Version)
	e.putTime(sw.FirstSeenAt)
	return e.bytes()
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
		rec := Software{Meta: meta, FirstSeenAt: firstSeen}
		if err := sw.Put(meta.ID[:], encodeSoftware(rec)); err != nil {
			return err
		}
		if err := markSoftwareDirty(tx, meta.ID); err != nil {
			return err
		}
		if meta.VendorKnown() {
			return tx.MustBucket(bucketSwByVendor).Put(vendorKey(meta.Vendor, meta.ID), nil)
		}
		return nil
	})
	return created, err
}

// HasSoftware reports whether an executable is on record, without
// decoding it — the read half of EnsureSoftware.
func (s *Store) HasSoftware(id core.SoftwareID) (bool, error) {
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		_, found = tx.MustBucket(bucketSoftware).Get(id[:])
		return nil
	})
	return found, err
}

// EnsureSoftware records an executable only if it is genuinely new.
// Unlike UpsertSoftware it checks existence under a read transaction
// first, so the steady-state case — the executable is already known —
// never takes the write lock or appends to the WAL. The upsert it falls
// into on first sight re-checks under the write lock, so a racing
// duplicate is still recorded exactly once.
func (s *Store) EnsureSoftware(meta core.SoftwareMeta, firstSeen time.Time) (bool, error) {
	if known, err := s.HasSoftware(meta.ID); err != nil || known {
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
