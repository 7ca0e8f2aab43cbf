package repo

import (
	"fmt"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// CheckIntegrity scans the whole repository, decoding every record and
// cross-checking the secondary indexes against their primary tables. It
// returns a human-readable list of problems (empty when the store is
// consistent) and fails only on I/O-level errors; data problems are
// reported, not returned as errors, so an operator can see all of them
// at once.
//
// Checks performed:
//   - every record in every table decodes under its current version;
//   - every e-mail-hash index entry points at an existing user whose
//     record carries that hash, and every user with a hash is indexed;
//   - every software-by-vendor entry points at an existing executable
//     with that vendor, and vice versa;
//   - every rating references an existing user and executable, and has
//     its ratings-by-user mirror (and vice versa);
//   - every comments-by-software entry points at an existing comment on
//     that executable;
//   - comment remark counters are non-negative.
func (s *Store) CheckIntegrity() ([]string, error) {
	var problems []string
	note := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	err := s.db.View(func(tx *storedb.Tx) error {
		users := tx.MustBucket(bucketUsers)
		emails := tx.MustBucket(bucketEmails)
		software := tx.MustBucket(bucketSoftware)
		byVendor := tx.MustBucket(bucketSwByVendor)
		ratings := tx.MustBucket(bucketRatings)
		byUser := tx.MustBucket(bucketRatingsByU)
		comments := tx.MustBucket(bucketComments)
		bySoftware := tx.MustBucket(bucketCommentsByS)

		// Users and the e-mail index.
		userEmail := map[string]string{}
		users.ForEach(func(k, v []byte) bool {
			u, err := decodeUser(v, true)
			if err != nil {
				note("user %q: undecodable record: %v", k, err)
				return true
			}
			if u.Username != string(k) {
				note("user %q: record claims username %q", k, u.Username)
			}
			userEmail[u.Username] = u.EmailHash
			return true
		})
		indexedEmails := map[string]string{}
		emails.ForEach(func(k, v []byte) bool {
			username := string(v)
			hash := string(k)
			indexedEmails[hash] = username
			if got, ok := userEmail[username]; !ok {
				note("email index %q: user %q does not exist", hash, username)
			} else if got != hash {
				note("email index %q: user %q carries hash %q", hash, username, got)
			}
			return true
		})
		for username, hash := range userEmail {
			if hash == "" {
				continue
			}
			if indexedEmails[hash] != username {
				note("user %q: e-mail hash %q missing from index", username, hash)
			}
		}

		// Software and the vendor index.
		swVendor := map[core.SoftwareID]string{}
		software.ForEach(func(k, v []byte) bool {
			sw, err := decodeSoftware(v)
			if err != nil {
				note("software %x: undecodable record: %v", k, err)
				return true
			}
			swVendor[sw.Meta.ID] = sw.Meta.Vendor
			return true
		})
		byVendor.ForEach(func(k, _ []byte) bool {
			vendor, rest, err := storedb.TakeString(k)
			if err != nil {
				note("vendor index: bad key %x", k)
				return true
			}
			var id core.SoftwareID
			copy(id[:], rest)
			if got, ok := swVendor[id]; !ok {
				note("vendor index %q: software %s does not exist", vendor, id)
			} else if got != vendor {
				note("vendor index %q: software %s carries vendor %q", vendor, id, got)
			}
			return true
		})
		for id, vendor := range swVendor {
			if vendor == "" {
				continue
			}
			if _, ok := byVendor.Get(vendorKey(vendor, id)); !ok {
				note("software %s: missing vendor index entry for %q", id, vendor)
			}
		}

		// Ratings and their per-user mirror.
		ratings.ForEach(func(k, v []byte) bool {
			var id core.SoftwareID
			copy(id[:], k[:len(id)])
			username, _, err := storedb.TakeString(k[len(id):])
			if err != nil {
				note("rating: bad key %x", k)
				return true
			}
			if _, _, err := decodeRating(v, id, username); err != nil {
				note("rating %s/%q: undecodable record: %v", id, username, err)
			}
			if _, ok := userEmail[username]; !ok {
				note("rating %s/%q: user does not exist", id, username)
			}
			if _, ok := swVendor[id]; !ok {
				note("rating %s/%q: software does not exist", id, username)
			}
			if _, ok := byUser.Get(ratingUserKey(nil, username, id)); !ok {
				note("rating %s/%q: missing by-user mirror", id, username)
			}
			return true
		})
		byUser.ForEach(func(k, _ []byte) bool {
			username, rest, err := storedb.TakeString(k)
			if err != nil {
				note("by-user index: bad key %x", k)
				return true
			}
			var id core.SoftwareID
			copy(id[:], rest)
			if _, ok := ratings.Get(ratingKey(nil, id, username)); !ok {
				note("by-user index %q/%s: rating does not exist", username, id)
			}
			return true
		})

		// Comments and their per-software mirror.
		commentSoftware := map[uint64]core.SoftwareID{}
		comments.ForEach(func(k, v []byte) bool {
			c, err := decodeComment(v, false)
			if err != nil {
				note("comment %x: undecodable record: %v", k, err)
				return true
			}
			if c.Positive < 0 || c.Negative < 0 {
				note("comment %d: negative remark counters", c.ID)
			}
			commentSoftware[c.ID] = c.Software
			if _, ok := bySoftware.Get(commentIndexKey(nil, c.Software, c.ID)); !ok {
				note("comment %d: missing by-software mirror", c.ID)
			}
			return true
		})
		bySoftware.ForEach(func(k, _ []byte) bool {
			var id core.SoftwareID
			copy(id[:], k[:len(id)])
			cid := decodeCommentKey(k[len(id):])
			if got, ok := commentSoftware[cid]; !ok {
				note("by-software index %s: comment %d does not exist", id, cid)
			} else if got != id {
				note("by-software index %s: comment %d belongs to %s", id, cid, got)
			}
			return true
		})
		return nil
	})
	return problems, err
}

func decodeCommentKey(k []byte) uint64 {
	var id uint64
	for _, b := range k {
		id = id<<8 | uint64(b)
	}
	return id
}
