package repo

import (
	"encoding/binary"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// Rating, comment and remark storage. The rating table is keyed
// (software, username) so the one-vote rule is a primary-key constraint,
// with a (username, software) secondary index for per-user listings.

const (
	ratingRecordVersion  = 1
	commentRecordVersion = 1
	remarkRecordVersion  = 1
)

// keyScratch and recordScratch size the on-stack buffers CastVote builds
// its keys and records in (the key builders append to dst; nil
// allocates). Long usernames and comment texts spill to the heap.
const (
	keyScratch    = 64
	recordScratch = 128
)

func ratingKey(dst []byte, id core.SoftwareID, username string) []byte {
	return storedb.AppendString(append(dst, id[:]...), username)
}

func ratingUserKey(dst []byte, username string, id core.SoftwareID) []byte {
	return append(storedb.AppendString(dst, username), id[:]...)
}

func commentKey(dst []byte, id uint64) []byte { return storedb.AppendUint64(dst, id) }

// commentIndexKey is the comments-by-software index key.
func commentIndexKey(dst []byte, software core.SoftwareID, id uint64) []byte {
	return commentKey(append(dst, software[:]...), id)
}

func appendRating(dst []byte, r core.Rating, commentID uint64) []byte {
	dst = append(dst, ratingRecordVersion)
	dst = appendInt64(dst, int64(r.Score))
	dst = appendUint64(dst, uint64(r.Behaviors))
	dst = appendTime(dst, r.At)
	return appendUint64(dst, commentID)
}

func decodeRating(data []byte, id core.SoftwareID, username string) (core.Rating, uint64, error) {
	r := core.Rating{UserID: username, Software: id}
	d, err := newDecoder(data, ratingRecordVersion)
	if err != nil {
		return r, 0, err
	}
	score, err := d.int64()
	if err != nil {
		return r, 0, err
	}
	r.Score = int(score)
	behaviors, err := d.uint64()
	if err != nil {
		return r, 0, err
	}
	r.Behaviors = core.Behavior(behaviors)
	if r.At, err = d.time(); err != nil {
		return r, 0, err
	}
	commentID, err := d.uint64()
	if err != nil {
		return r, 0, err
	}
	return r, commentID, d.finish()
}

func appendComment(dst []byte, c core.Comment) []byte {
	dst = append(dst, commentRecordVersion)
	dst = appendUint64(dst, c.ID)
	dst = appendString(dst, c.UserID)
	dst = appendBytes(dst, c.Software[:])
	dst = appendString(dst, c.Text)
	dst = appendTime(dst, c.At)
	dst = appendInt64(dst, int64(c.Positive))
	dst = appendInt64(dst, int64(c.Negative))
	return appendBool(dst, c.Hidden)
}

// decodeComment's strings, with borrow, share data's memory (borrowString).
func decodeComment(data []byte, borrow bool) (core.Comment, error) {
	var c core.Comment
	d, err := newDecoder(data, commentRecordVersion)
	if err != nil {
		return c, err
	}
	d.borrow = borrow
	if c.ID, err = d.uint64(); err != nil {
		return c, err
	}
	if c.UserID, err = d.string(); err != nil {
		return c, err
	}
	sw, err := d.bytesField()
	if err != nil {
		return c, err
	}
	copy(c.Software[:], sw)
	if c.Text, err = d.string(); err != nil {
		return c, err
	}
	if c.At, err = d.time(); err != nil {
		return c, err
	}
	pos, err := d.int64()
	if err != nil {
		return c, err
	}
	neg, err := d.int64()
	if err != nil {
		return c, err
	}
	c.Positive, c.Negative = int(pos), int(neg)
	if c.Hidden, err = d.bool(); err != nil {
		return c, err
	}
	return c, d.finish()
}

// Vote is one cast vote, as CastVote stores it.
type Vote struct {
	core.Rating
	// Meta, when set, lets CastVote put the executable on record at its
	// first sight; without it the executable must be on record already.
	Meta *core.SoftwareMeta
	// Comment is the optional comment text; HideComment stores it
	// hidden, awaiting moderation (§2.1).
	Comment     string
	HideComment bool
}

// CastVote stores one user's vote on one executable in one transaction:
// the executable's record at its first sight, the one-vote rule, the
// rating with its index entry and dirty mark and, when text is given,
// the comment, born in the moderation state it is to have. It returns
// the comment's ID (0 without one). The voting user must exist.
func (s *Store) CastVote(v Vote) (commentID uint64, err error) {
	if err := core.ValidateScore(v.Score); err != nil {
		return 0, err
	}
	err = s.db.Update(func(tx *storedb.Tx) error {
		var key [keyScratch]byte
		var rec [recordScratch]byte
		if _, ok := tx.MustBucket(bucketUsers).Get([]byte(v.UserID)); !ok {
			return ErrUserNotFound
		}
		if _, ok := tx.MustBucket(bucketSoftware).Get(v.Software[:]); !ok {
			if v.Meta == nil {
				return ErrSoftwareNotFound
			}
			if err := recordSoftware(tx, *v.Meta, v.At); err != nil {
				return err
			}
		}
		ratings := tx.MustBucket(bucketRatings)
		if _, dup := ratings.Get(ratingKey(key[:0], v.Software, v.UserID)); dup {
			return ErrAlreadyRated
		}

		if v.Comment != "" {
			id, err := nextCommentID(tx)
			if err != nil {
				return err
			}
			commentID = id
			c := core.Comment{
				ID:       id,
				UserID:   v.UserID,
				Software: v.Software,
				Text:     v.Comment,
				At:       v.At,
				Hidden:   v.HideComment,
			}
			if err := tx.MustBucket(bucketComments).Put(commentKey(key[:0], id), appendComment(rec[:0], c)); err != nil {
				return err
			}
			if err := tx.MustBucket(bucketCommentsByS).Put(commentIndexKey(key[:0], v.Software, id), nil); err != nil {
				return err
			}
		}

		rating := appendRating(rec[:0], v.Rating, commentID)
		if err := ratings.Put(ratingKey(key[:0], v.Software, v.UserID), rating); err != nil {
			return err
		}
		if err := markSoftwareDirty(tx, v.Software); err != nil {
			return err
		}
		return tx.MustBucket(bucketRatingsByU).Put(ratingUserKey(key[:0], v.UserID, v.Software), nil)
	})
	if err != nil {
		return 0, err
	}
	return commentID, nil
}

// AddRating is CastVote for a caller that holds no metadata: the
// executable must be on record already, and the comment is published.
func (s *Store) AddRating(r core.Rating, commentText string) (uint64, error) {
	return s.CastVote(Vote{Rating: r, Comment: commentText})
}

// nextCommentID allocates a monotonically increasing comment ID inside
// an open write transaction.
func nextCommentID(tx *storedb.Tx) (uint64, error) {
	meta := tx.MustBucket(bucketMeta)
	var next uint64 = 1
	if v, ok := meta.Get([]byte("nextCommentID")); ok && len(v) == 8 {
		next = binary.BigEndian.Uint64(v)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], next+1)
	if err := meta.Put([]byte("nextCommentID"), buf[:]); err != nil {
		return 0, err
	}
	return next, nil
}

// GetRating fetches one user's vote on one executable.
func (s *Store) GetRating(id core.SoftwareID, username string) (core.Rating, bool, error) {
	var r core.Rating
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		data, ok := tx.MustBucket(bucketRatings).Get(ratingKey(nil, id, username))
		if !ok {
			return nil
		}
		var derr error
		r, _, derr = decodeRating(data, id, username)
		found = derr == nil
		return derr
	})
	return r, found, err
}

// RatingsForSoftware returns every vote on one executable.
func (s *Store) RatingsForSoftware(id core.SoftwareID) ([]core.Rating, error) {
	var out []core.Rating
	err := s.db.View(func(tx *storedb.Tx) error {
		var derr error
		tx.MustBucket(bucketRatings).RangePrefix(id[:], func(k, v []byte) bool {
			username, _, err := storedb.TakeString(k[len(id):])
			if err != nil {
				derr = err
				return false
			}
			r, _, err := decodeRating(v, id, username)
			if err != nil {
				derr = err
				return false
			}
			out = append(out, r)
			return true
		})
		return derr
	})
	return out, err
}

// SoftwareRatedBy returns the identities of every executable a user has
// voted on, via the secondary index.
func (s *Store) SoftwareRatedBy(username string) ([]core.SoftwareID, error) {
	var out []core.SoftwareID
	prefix := storedb.AppendString(nil, username)
	err := s.db.View(func(tx *storedb.Tx) error {
		tx.MustBucket(bucketRatingsByU).RangePrefix(prefix, func(k, _ []byte) bool {
			var id core.SoftwareID
			copy(id[:], k[len(prefix):])
			out = append(out, id)
			return true
		})
		return nil
	})
	return out, err
}

// GetComment fetches a comment by ID.
func (s *Store) GetComment(id uint64) (core.Comment, bool, error) {
	var c core.Comment
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		data, ok := tx.MustBucket(bucketComments).Get(commentKey(nil, id))
		if !ok {
			return nil
		}
		var derr error
		c, derr = decodeComment(data, false)
		found = derr == nil
		return derr
	})
	return c, found, err
}

// commentsTx visits every comment on one executable in submission
// order, stopping at fn's first error, after telling size how many
// there are at most (their index entries, which may outnumber them);
// borrow is decodeComment's.
func commentsTx(tx *storedb.Tx, id core.SoftwareID, borrow bool, size func(n int), fn func(core.Comment) error) error {
	comments, index := tx.MustBucket(bucketComments), tx.MustBucket(bucketCommentsByS)
	if n := index.Count(id[:]); n > 0 {
		size(n)
	}
	var derr error
	index.RangePrefix(id[:], func(k, _ []byte) bool {
		data, ok := comments.Get(k[len(id):])
		if !ok {
			return true // index points at a vanished comment: skip
		}
		c, err := decodeComment(data, borrow)
		if err == nil {
			err = fn(c)
		}
		derr = err
		return err == nil
	})
	return derr
}

// CommentsForSoftware returns every comment on one executable in
// submission order.
func (s *Store) CommentsForSoftware(id core.SoftwareID) ([]core.Comment, error) {
	var out []core.Comment
	err := s.db.View(func(tx *storedb.Tx) error {
		return commentsTx(tx, id, false,
			func(n int) { out = make([]core.Comment, 0, n) },
			func(c core.Comment) error { out = append(out, c); return nil })
	})
	return out, err
}

// SetCommentHidden flips a comment's moderation state.
func (s *Store) SetCommentHidden(id uint64, hidden bool) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		comments := tx.MustBucket(bucketComments)
		data, ok := comments.Get(commentKey(nil, id))
		if !ok {
			return ErrCommentNotFound
		}
		c, err := decodeComment(data, false)
		if err != nil {
			return err
		}
		c.Hidden = hidden
		return comments.Put(commentKey(nil, id), appendComment(nil, c))
	})
}

// PendingComments lists every hidden comment, oldest first — the
// moderation queue of §2.1's administrator approach.
func (s *Store) PendingComments() ([]core.Comment, error) {
	var out []core.Comment
	err := s.db.View(func(tx *storedb.Tx) error {
		var derr error
		tx.MustBucket(bucketComments).ForEach(func(_, v []byte) bool {
			c, err := decodeComment(v, false)
			if err != nil {
				derr = err
				return false
			}
			if c.Hidden {
				out = append(out, c)
			}
			return true
		})
		return derr
	})
	return out, err
}

func remarkKey(commentID uint64, username string) []byte {
	return storedb.AppendString(commentKey(nil, commentID), username)
}

// AddRemark records one user's judgement of a comment, enforcing one
// remark per user per comment and forbidding self-remarks. It updates
// the comment's counters and returns the comment author's username so
// the caller can adjust that author's trust factor.
func (s *Store) AddRemark(r core.Remark) (author string, err error) {
	err = s.db.Update(func(tx *storedb.Tx) error {
		comments := tx.MustBucket(bucketComments)
		data, ok := comments.Get(commentKey(nil, r.CommentID))
		if !ok {
			return ErrCommentNotFound
		}
		c, err := decodeComment(data, false)
		if err != nil {
			return err
		}
		if c.UserID == r.UserID {
			return ErrSelfRemark
		}
		remarks := tx.MustBucket(bucketRemarks)
		rk := remarkKey(r.CommentID, r.UserID)
		if _, dup := remarks.Get(rk); dup {
			return ErrAlreadyRemarked
		}

		remark := appendTime(appendBool([]byte{remarkRecordVersion}, r.Positive), r.At)
		if err := remarks.Put(rk, remark); err != nil {
			return err
		}
		if r.Positive {
			c.Positive++
		} else {
			c.Negative++
		}
		author = c.UserID
		return comments.Put(commentKey(nil, c.ID), appendComment(nil, c))
	})
	return author, err
}
