package repo

import (
	"slices"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// AuthoredComment is a comment with its author's trust factor as of the
// same snapshot.
type AuthoredComment struct {
	core.Comment
	// AuthorTrust is the author's trust factor; 0 for a vanished author.
	AuthorTrust float64
}

// ReportState is everything stored that a lookup report shows.
type ReportState struct {
	// Known reports whether the executable is on record.
	Known bool
	// Score is the published score; only Software is set without one.
	Score core.SoftwareScore
	// Vendor is the vendor's published score, its name left empty: the
	// caller holds it. Zero without one, and when no vendor was named.
	Vendor core.VendorScore
	// Comments are the visible comments in submission order.
	Comments []AuthoredComment
}

// ReportState reads one executable's report out of a single read
// transaction, so that every field comes from the same snapshot of the
// tree: a report never mixes the state before and after a commit (or,
// on a replica, an applied batch). vendor is the executable's vendor
// name, or empty when it carries none, in whatever bytes the caller has
// it: no string is made of it; comments selects whether the comments and
// their authors' trust factors are read at all.
//
// With a nil scratch the comments are the caller's to keep. A caller that
// encodes the report and drops it passes scratch and pays nothing per
// comment: st.Comments is *scratch written over (grown when too small,
// for the next call too) and its strings are borrowed from the tree's
// records (borrowString), not copied.
func (s *Store) ReportState(id core.SoftwareID, vendor []byte, comments bool, scratch *[]AuthoredComment) (ReportState, error) {
	var st ReportState
	if scratch != nil {
		st.Comments = (*scratch)[:0]
		defer func() { *scratch = st.Comments }()
	}
	err := s.db.View(func(tx *storedb.Tx) error {
		_, st.Known = tx.MustBucket(bucketSoftware).Get(id[:]) // existence only: no decode
		var err error
		if st.Score, _, err = scoreTx(tx, id); err != nil {
			return err
		}
		if len(vendor) > 0 {
			if st.Vendor, _, err = vendorScoreTx(tx, vendor); err != nil {
				return err
			}
		}
		if !comments {
			return nil
		}
		return commentsTx(tx, id, scratch != nil,
			func(n int) { st.Comments = slices.Grow(st.Comments, n) },
			func(c core.Comment) error {
				if c.Hidden {
					return nil // awaiting moderation (§2.1)
				}
				trust, _, err := trustTx(tx, c.UserID)
				st.Comments = append(st.Comments, AuthoredComment{c, trust})
				return err
			})
	})
	return st, err
}
