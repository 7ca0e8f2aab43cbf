package repo

import (
	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// Published score storage: the output of the 24-hour aggregation job.

const (
	scoreRecordVersion  = 1
	vendorRecordVersion = 1
)

func encodeScore(sc core.SoftwareScore) []byte {
	b := appendFloat64([]byte{scoreRecordVersion}, sc.Score)
	b = appendInt64(b, int64(sc.Votes))
	b = appendUint64(b, uint64(sc.Behaviors))
	return appendTime(b, sc.ComputedAt)
}

func encodeVendorScore(v core.VendorScore) []byte {
	return appendInt64(appendFloat64([]byte{vendorRecordVersion}, v.Score), int64(v.SoftwareCount))
}

func encodeSchedule(sched core.AggregationSchedule) []byte {
	return appendTime([]byte{1}, sched.LastRun)
}

func decodeScore(data []byte, id core.SoftwareID) (core.SoftwareScore, error) {
	sc := core.SoftwareScore{Software: id}
	d, err := newDecoder(data, scoreRecordVersion)
	if err != nil {
		return sc, err
	}
	if sc.Score, err = d.float64(); err != nil {
		return sc, err
	}
	votes, err := d.int64()
	if err != nil {
		return sc, err
	}
	sc.Votes = int(votes)
	behaviors, err := d.uint64()
	if err != nil {
		return sc, err
	}
	sc.Behaviors = core.Behavior(behaviors)
	if sc.ComputedAt, err = d.time(); err != nil {
		return sc, err
	}
	return sc, d.finish()
}

// SetScores publishes a batch of scores in one transaction, which is
// what the aggregation job uses.
func (s *Store) SetScores(scores []core.SoftwareScore) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		b := tx.MustBucket(bucketScores)
		for _, sc := range scores {
			if err := b.Put(sc.Software[:], encodeScore(sc)); err != nil {
				return err
			}
		}
		return nil
	})
}

// scoreTx reads the published score of one executable; with none on
// record only the score's Software field is set.
func scoreTx(tx *storedb.Tx, id core.SoftwareID) (core.SoftwareScore, bool, error) {
	data, ok := tx.MustBucket(bucketScores).Get(id[:])
	if !ok {
		return core.SoftwareScore{Software: id}, false, nil
	}
	sc, err := decodeScore(data, id)
	return sc, err == nil, err
}

// GetScore fetches the published score of one executable.
func (s *Store) GetScore(id core.SoftwareID) (sc core.SoftwareScore, found bool, err error) {
	err = s.db.View(func(tx *storedb.Tx) error {
		sc, found, err = scoreTx(tx, id)
		return err
	})
	return sc, found, err
}

// SetVendorScore publishes an aggregated vendor score.
func (s *Store) SetVendorScore(v core.VendorScore) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket(bucketVendorScore).Put([]byte(v.Vendor), encodeVendorScore(v))
	})
}

// vendorScoreTx reads the published score of one vendor, its name left
// empty: zero with none on record.
func vendorScoreTx(tx *storedb.Tx, vendor []byte) (core.VendorScore, bool, error) {
	var out core.VendorScore
	data, ok := tx.MustBucket(bucketVendorScore).Get(vendor)
	if !ok {
		return out, false, nil
	}
	d, err := newDecoder(data, vendorRecordVersion)
	if err != nil {
		return out, false, err
	}
	if out.Score, err = d.float64(); err != nil {
		return out, false, err
	}
	count, err := d.int64()
	if err != nil {
		return out, false, err
	}
	out.SoftwareCount = int(count)
	err = d.finish()
	return out, err == nil, err
}

// GetVendorScore fetches the published score of one vendor.
func (s *Store) GetVendorScore(vendor string) (vs core.VendorScore, found bool, err error) {
	err = s.db.View(func(tx *storedb.Tx) error {
		vs, found, err = vendorScoreTx(tx, []byte(vendor))
		return err
	})
	vs.Vendor = vendor
	return vs, found, err
}

// AggregationState persists the 24-hour job schedule across restarts.
func (s *Store) AggregationState() (core.AggregationSchedule, error) {
	var sched core.AggregationSchedule
	err := s.db.View(func(tx *storedb.Tx) error {
		data, ok := tx.MustBucket(bucketMeta).Get([]byte("lastAggregation"))
		if !ok {
			return nil
		}
		d, err := newDecoder(data, 1)
		if err != nil {
			return err
		}
		if sched.LastRun, err = d.time(); err != nil {
			return err
		}
		return d.finish()
	})
	return sched, err
}

// BootstrapPrior is the imported mass behind a bootstrapped score: the
// §2.1 "copying the information from an existing … software rating
// database". During aggregation it acts as prior votes, so early live
// votes are "one out of many, rather than the one and only".
type BootstrapPrior struct {
	// Score is the imported 1–10 rating.
	Score float64
	// Votes is the imported vote count.
	Votes int
	// Behaviors is the imported behaviour profile.
	Behaviors core.Behavior
}

const priorRecordVersion = 1

// SetBootstrapPrior records the imported prior for one executable.
func (s *Store) SetBootstrapPrior(id core.SoftwareID, p BootstrapPrior) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		b := appendFloat64([]byte{priorRecordVersion}, p.Score)
		b = appendInt64(b, int64(p.Votes))
		b = appendUint64(b, uint64(p.Behaviors))
		if err := markSoftwareDirty(tx, id); err != nil {
			return err
		}
		return tx.MustBucket(bucketPriors).Put(id[:], b)
	})
}

// ForEachScoreRecord visits every published score record in identity
// order, handing over the raw stored bytes. Tests use it to compare two
// stores' published state byte for byte.
func (s *Store) ForEachScoreRecord(fn func(id core.SoftwareID, raw []byte) bool) error {
	return s.db.View(func(tx *storedb.Tx) error {
		tx.MustBucket(bucketScores).ForEach(func(k, v []byte) bool {
			var id core.SoftwareID
			copy(id[:], k)
			return fn(id, v)
		})
		return nil
	})
}

// ForEachVendorScoreRecord visits every published vendor score record
// in vendor order, handing over the raw stored bytes.
func (s *Store) ForEachVendorScoreRecord(fn func(vendor string, raw []byte) bool) error {
	return s.db.View(func(tx *storedb.Tx) error {
		tx.MustBucket(bucketVendorScore).ForEach(func(k, v []byte) bool {
			return fn(string(k), v)
		})
		return nil
	})
}

// GetBootstrapPrior fetches the imported prior for one executable.
func (s *Store) GetBootstrapPrior(id core.SoftwareID) (BootstrapPrior, bool, error) {
	var p BootstrapPrior
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		data, ok := tx.MustBucket(bucketPriors).Get(id[:])
		if !ok {
			return nil
		}
		d, err := newDecoder(data, priorRecordVersion)
		if err != nil {
			return err
		}
		if p.Score, err = d.float64(); err != nil {
			return err
		}
		votes, err := d.int64()
		if err != nil {
			return err
		}
		p.Votes = int(votes)
		behaviors, err := d.uint64()
		if err != nil {
			return err
		}
		p.Behaviors = core.Behavior(behaviors)
		found = true
		return d.finish()
	})
	return p, found, err
}
