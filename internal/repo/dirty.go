package repo

import (
	"bytes"
	"encoding/binary"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// Dirty-set bookkeeping for incremental aggregation. Every write that
// can change an aggregated score marks the affected software (or, for
// trust changes, the affected user) in the meta bucket; the aggregation
// job reads the set, recomputes, and clears the consumed markers in the
// same transaction that publishes the recomputed scores, so a crash
// between the two cannot lose a pending recompute.
//
// Each marker is stamped with the commit sequence that wrote it. The
// publish transaction only clears a marker whose stamp still matches
// what the run read: a vote racing the recompute rewrites the marker
// with a later stamp, the clear skips it, and the next run picks the
// software up again. Nothing is ever lost to the race.
//
// The markers live in the meta bucket rather than their own bucket so
// they replicate with everything else: a promoted replica inherits the
// primary's pending recompute set.

const (
	dirtySoftwarePrefix = "dirty-sw|"
	dirtyUserPrefix     = "dirty-u|"
)

func dirtySoftwareKey(dst []byte, id core.SoftwareID) []byte {
	return append(append(dst, dirtySoftwarePrefix...), id[:]...)
}

func dirtyUserKey(username string) []byte {
	return append([]byte(dirtyUserPrefix), username...)
}

func dirtyStamp(tx *storedb.Tx) (v [8]byte) {
	binary.BigEndian.PutUint64(v[:], tx.CommitSeq())
	return v
}

// markSoftwareDirty flags an executable for the next incremental
// aggregation run, inside an open write transaction.
func markSoftwareDirty(tx *storedb.Tx, id core.SoftwareID) error {
	var key [keyScratch]byte
	stamp := dirtyStamp(tx)
	return tx.MustBucket(bucketMeta).Put(dirtySoftwareKey(key[:0], id), stamp[:])
}

// markUserDirty flags a user whose trust factor changed: every software
// they rated needs its score reweighed.
func markUserDirty(tx *storedb.Tx, username string) error {
	stamp := dirtyStamp(tx)
	return tx.MustBucket(bucketMeta).Put(dirtyUserKey(username), stamp[:])
}

// DirtySoftwareMark is one pending-recompute flag on an executable.
type DirtySoftwareMark struct {
	// ID is the flagged executable.
	ID core.SoftwareID
	// Gen is the commit stamp the marker carried when read.
	Gen uint64
}

// DirtyUserMark is one pending-recompute flag on a user.
type DirtyUserMark struct {
	// Username is the flagged user.
	Username string
	// Gen is the commit stamp the marker carried when read.
	Gen uint64
}

// DirtySoftware returns the executables flagged since the last
// aggregation publish, in identity order.
func (s *Store) DirtySoftware() ([]DirtySoftwareMark, error) {
	var out []DirtySoftwareMark
	err := s.db.View(func(tx *storedb.Tx) error {
		tx.MustBucket(bucketMeta).RangePrefix([]byte(dirtySoftwarePrefix), func(k, v []byte) bool {
			var m DirtySoftwareMark
			copy(m.ID[:], k[len(dirtySoftwarePrefix):])
			if len(v) == 8 {
				m.Gen = binary.BigEndian.Uint64(v)
			}
			out = append(out, m)
			return true
		})
		return nil
	})
	return out, err
}

// DirtyUsers returns the users whose trust factor changed since the
// last aggregation publish, in username order.
func (s *Store) DirtyUsers() ([]DirtyUserMark, error) {
	var out []DirtyUserMark
	err := s.db.View(func(tx *storedb.Tx) error {
		tx.MustBucket(bucketMeta).RangePrefix([]byte(dirtyUserPrefix), func(k, v []byte) bool {
			m := DirtyUserMark{Username: string(k[len(dirtyUserPrefix):])}
			if len(v) == 8 {
				m.Gen = binary.BigEndian.Uint64(v)
			}
			out = append(out, m)
			return true
		})
		return nil
	})
	return out, err
}

// AggregationPublish is everything one aggregation run commits, applied
// in a single transaction: recomputed scores, derived vendor scores,
// the schedule, and the consumption of the dirty markers the run read.
type AggregationPublish struct {
	// Scores are the score records that actually changed.
	Scores []core.SoftwareScore
	// VendorScores are the vendor records that actually changed.
	VendorScores []core.VendorScore
	// ClearDirtySoftware / ClearDirtyUsers are the markers the run
	// consumed; each is cleared only if its stamp is unchanged, so a
	// marker rewritten by a racing vote survives for the next run.
	ClearDirtySoftware []DirtySoftwareMark
	// ClearDirtyUsers lists consumed user markers.
	ClearDirtyUsers []DirtyUserMark
	// Schedule is persisted so a restart knows the run happened.
	Schedule core.AggregationSchedule
}

// PublishAggregation commits one aggregation run atomically.
func (s *Store) PublishAggregation(p AggregationPublish) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		scores := tx.MustBucket(bucketScores)
		for _, sc := range p.Scores {
			if err := scores.Put(sc.Software[:], encodeScore(sc)); err != nil {
				return err
			}
		}
		vendors := tx.MustBucket(bucketVendorScore)
		for _, v := range p.VendorScores {
			if err := vendors.Put([]byte(v.Vendor), encodeVendorScore(v)); err != nil {
				return err
			}
		}
		meta := tx.MustBucket(bucketMeta)
		clearIfUnchanged := func(key []byte, gen uint64) error {
			v, ok := meta.Get(key)
			if !ok || len(v) != 8 || binary.BigEndian.Uint64(v) != gen {
				return nil // rewritten since the run read it: keep
			}
			return meta.Delete(key)
		}
		for _, m := range p.ClearDirtySoftware {
			if err := clearIfUnchanged(dirtySoftwareKey(nil, m.ID), m.Gen); err != nil {
				return err
			}
		}
		for _, m := range p.ClearDirtyUsers {
			if err := clearIfUnchanged(dirtyUserKey(m.Username), m.Gen); err != nil {
				return err
			}
		}
		return meta.Put([]byte("lastAggregation"), encodeSchedule(p.Schedule))
	})
}

// Impact describes which cached reports a replicated batch can affect.
// The zero value means "nothing". When All is set the batch touched
// state the analysis cannot attribute (or replaced the whole database),
// and every cached report must go.
type Impact struct {
	// All means the whole cache is suspect.
	All bool
	// Software lists directly affected executables.
	Software []core.SoftwareID
	// Users lists users whose record changed; reports showing their
	// comments (author trust) are affected, resolvable via
	// SoftwareRatedBy.
	Users []string
	// Vendors lists vendors whose published score changed; reports for
	// their software are affected, resolvable via SoftwareByVendor.
	Vendors []string
}

// BatchImpact attributes a replicated batch's operations to the cached
// reports they can invalidate, by bucket prefix. It is deliberately
// conservative: anything unattributable flips All.
func BatchImpact(b storedb.Batch) Impact {
	var imp Impact
	if len(b.Ops) == 0 {
		// An op-less batch is the snapshot-restore signal: the entire
		// state was replaced.
		imp.All = true
		return imp
	}
	seenSw := make(map[core.SoftwareID]bool)
	addSw := func(raw []byte) {
		var id core.SoftwareID
		copy(id[:], raw)
		if !seenSw[id] {
			seenSw[id] = true
			imp.Software = append(imp.Software, id)
		}
	}
	seenUsers := make(map[string]bool)
	seenVendors := make(map[string]bool)
	for _, op := range b.Ops {
		i := bytes.IndexByte(op.Key, 0)
		if i < 0 {
			imp.All = true
			return imp
		}
		bucket, key := string(op.Key[:i]), op.Key[i+1:]
		switch bucket {
		case bucketSoftware, bucketScores, bucketPriors:
			// Keyed directly by software identity.
			addSw(key)
		case bucketRatings, bucketCommentsByS:
			// Software identity is the key prefix.
			if len(key) < len(core.SoftwareID{}) {
				imp.All = true
				return imp
			}
			addSw(key[:len(core.SoftwareID{})])
		case bucketComments:
			// The software lives in the value; a delete has none.
			if op.Delete {
				imp.All = true
				return imp
			}
			c, err := decodeComment(op.Val, false)
			if err != nil {
				imp.All = true
				return imp
			}
			addSw(c.Software[:])
		case bucketUsers:
			if u := string(key); !seenUsers[u] {
				seenUsers[u] = true
				imp.Users = append(imp.Users, u)
			}
		case bucketVendorScore:
			if v := string(key); !seenVendors[v] {
				seenVendors[v] = true
				imp.Vendors = append(imp.Vendors, v)
			}
		case bucketRemarks:
			// Remark records are never read when building a report; the
			// comment-counter update arrives as a bucketComments put in
			// the same batch.
		case bucketMeta, bucketEmails, bucketRatingsByU, bucketSwByVendor:
			// Counters, schedules, dirty markers and pure secondary
			// indexes: no report content.
		default:
			imp.All = true
			return imp
		}
	}
	return imp
}
