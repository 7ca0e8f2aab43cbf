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

func ratingKey(id core.SoftwareID, username string) []byte {
	k := append([]byte(nil), id[:]...)
	return storedb.AppendString(k, username)
}

func ratingUserKey(username string, id core.SoftwareID) []byte {
	k := storedb.AppendString(nil, username)
	return append(k, id[:]...)
}

func encodeRating(r core.Rating, commentID uint64) []byte {
	e := newEncoder(ratingRecordVersion)
	e.putInt64(int64(r.Score))
	e.putUint64(uint64(r.Behaviors))
	e.putTime(r.At)
	e.putUint64(commentID)
	return e.bytes()
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

func encodeComment(c core.Comment) []byte {
	e := newEncoder(commentRecordVersion)
	e.putUint64(c.ID)
	e.putString(c.UserID)
	e.putBytes(c.Software[:])
	e.putString(c.Text)
	e.putTime(c.At)
	e.putInt64(int64(c.Positive))
	e.putInt64(int64(c.Negative))
	e.putBool(c.Hidden)
	return e.bytes()
}

func decodeComment(data []byte) (core.Comment, error) {
	var c core.Comment
	d, err := newDecoder(data, commentRecordVersion)
	if err != nil {
		return c, err
	}
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

func commentKey(id uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], id)
	return k[:]
}

// AddRating stores one user's vote on one executable, enforcing the
// one-vote rule, and attaches a comment when text is non-empty. It
// returns the new comment's ID (0 when no comment was attached).
// The referenced user and software must already exist.
func (s *Store) AddRating(r core.Rating, commentText string) (uint64, error) {
	if err := core.ValidateScore(r.Score); err != nil {
		return 0, err
	}
	var commentID uint64
	err := s.db.Update(func(tx *storedb.Tx) error {
		if _, ok := tx.MustBucket(bucketUsers).Get([]byte(r.UserID)); !ok {
			return ErrUserNotFound
		}
		if _, ok := tx.MustBucket(bucketSoftware).Get(r.Software[:]); !ok {
			return ErrSoftwareNotFound
		}
		ratings := tx.MustBucket(bucketRatings)
		rk := ratingKey(r.Software, r.UserID)
		if _, dup := ratings.Get(rk); dup {
			return ErrAlreadyRated
		}

		if commentText != "" {
			id, err := s.nextCommentID(tx)
			if err != nil {
				return err
			}
			commentID = id
			c := core.Comment{
				ID:       id,
				UserID:   r.UserID,
				Software: r.Software,
				Text:     commentText,
				At:       r.At,
			}
			if err := tx.MustBucket(bucketComments).Put(commentKey(id), encodeComment(c)); err != nil {
				return err
			}
			csKey := append(append([]byte(nil), r.Software[:]...), commentKey(id)...)
			if err := tx.MustBucket(bucketCommentsByS).Put(csKey, nil); err != nil {
				return err
			}
		}

		if err := ratings.Put(rk, encodeRating(r, commentID)); err != nil {
			return err
		}
		if err := markSoftwareDirty(tx, r.Software); err != nil {
			return err
		}
		return tx.MustBucket(bucketRatingsByU).Put(ratingUserKey(r.UserID, r.Software), nil)
	})
	if err != nil {
		return 0, err
	}
	return commentID, nil
}

// nextCommentID allocates a monotonically increasing comment ID inside
// an open write transaction.
func (s *Store) nextCommentID(tx *storedb.Tx) (uint64, error) {
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
		data, ok := tx.MustBucket(bucketRatings).Get(ratingKey(id, username))
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
		data, ok := tx.MustBucket(bucketComments).Get(commentKey(id))
		if !ok {
			return nil
		}
		var derr error
		c, derr = decodeComment(data)
		found = derr == nil
		return derr
	})
	return c, found, err
}

// commentsTx visits every comment on one executable in submission
// order, stopping at fn's first error, after telling size how many
// there are at most (their index entries, which may outnumber them).
func commentsTx(tx *storedb.Tx, id core.SoftwareID, size func(n int), fn func(core.Comment) error) error {
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
		c, err := decodeComment(data)
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
		return commentsTx(tx, id,
			func(n int) { out = make([]core.Comment, 0, n) },
			func(c core.Comment) error { out = append(out, c); return nil })
	})
	return out, err
}

// SetCommentHidden flips a comment's moderation state.
func (s *Store) SetCommentHidden(id uint64, hidden bool) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		comments := tx.MustBucket(bucketComments)
		data, ok := comments.Get(commentKey(id))
		if !ok {
			return ErrCommentNotFound
		}
		c, err := decodeComment(data)
		if err != nil {
			return err
		}
		c.Hidden = hidden
		return comments.Put(commentKey(id), encodeComment(c))
	})
}

// PendingComments lists every hidden comment, oldest first — the
// moderation queue of §2.1's administrator approach.
func (s *Store) PendingComments() ([]core.Comment, error) {
	var out []core.Comment
	err := s.db.View(func(tx *storedb.Tx) error {
		var derr error
		tx.MustBucket(bucketComments).ForEach(func(_, v []byte) bool {
			c, err := decodeComment(v)
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
	k := commentKey(commentID)
	return storedb.AppendString(k, username)
}

// AddRemark records one user's judgement of a comment, enforcing one
// remark per user per comment and forbidding self-remarks. It updates
// the comment's counters and returns the comment author's username so
// the caller can adjust that author's trust factor.
func (s *Store) AddRemark(r core.Remark) (author string, err error) {
	err = s.db.Update(func(tx *storedb.Tx) error {
		comments := tx.MustBucket(bucketComments)
		data, ok := comments.Get(commentKey(r.CommentID))
		if !ok {
			return ErrCommentNotFound
		}
		c, err := decodeComment(data)
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

		e := newEncoder(remarkRecordVersion)
		e.putBool(r.Positive)
		e.putTime(r.At)
		if err := remarks.Put(rk, e.bytes()); err != nil {
			return err
		}
		if r.Positive {
			c.Positive++
		} else {
			c.Negative++
		}
		author = c.UserID
		return comments.Put(commentKey(c.ID), encodeComment(c))
	})
	return author, err
}
