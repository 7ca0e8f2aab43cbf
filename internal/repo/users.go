package repo

import (
	"fmt"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
)

// User is one registered account, holding exactly the §3.2 fields plus
// the trust-factor state of the reputation engine.
type User struct {
	// Username is the unique account name and primary key.
	Username string
	// PasswordHash is the salted PBKDF2 hash of the password.
	PasswordHash string
	// EmailHash is the peppered hash of the signup address.
	EmailHash string
	// SignedUpAt and LastLoginAt are the only timestamps kept.
	SignedUpAt  time.Time
	LastLoginAt time.Time
	// Activated reports whether the e-mail round trip completed.
	Activated bool
	// Trust is the user's trust-factor state.
	Trust core.Trust
}

const userRecordVersion = 1

func encodeUser(u User) []byte {
	b := appendString([]byte{userRecordVersion}, u.Username)
	b = appendString(b, u.PasswordHash)
	b = appendString(b, u.EmailHash)
	b = appendTime(b, u.SignedUpAt)
	b = appendTime(b, u.LastLoginAt)
	b = appendBool(b, u.Activated)
	b = appendFloat64(b, u.Trust.Value)
	b = appendTime(b, u.Trust.JoinedAt)
	b = appendFloat64(b, u.Trust.GrownInWeek)
	return appendInt64(b, int64(u.Trust.WeekIdx))
}

// decodeUser decodes a user record. With identity unset it steps over
// the three identity strings instead of materialising them: the
// projection that reads a trust factor without allocating.
func decodeUser(data []byte, identity bool) (User, error) {
	var u User
	d, err := newDecoder(data, userRecordVersion)
	if err != nil {
		return u, err
	}
	if u.Username, err = d.stringIf(identity); err != nil {
		return u, err
	}
	if u.PasswordHash, err = d.stringIf(identity); err != nil {
		return u, err
	}
	if u.EmailHash, err = d.stringIf(identity); err != nil {
		return u, err
	}
	if u.SignedUpAt, err = d.time(); err != nil {
		return u, err
	}
	if u.LastLoginAt, err = d.time(); err != nil {
		return u, err
	}
	if u.Activated, err = d.bool(); err != nil {
		return u, err
	}
	if u.Trust.Value, err = d.float64(); err != nil {
		return u, err
	}
	if u.Trust.JoinedAt, err = d.time(); err != nil {
		return u, err
	}
	if u.Trust.GrownInWeek, err = d.float64(); err != nil {
		return u, err
	}
	week, err := d.int64()
	if err != nil {
		return u, err
	}
	u.Trust.WeekIdx = int(week)
	return u, d.finish()
}

// CreateUser registers a new account, enforcing username uniqueness and
// the one-account-per-e-mail rule.
func (s *Store) CreateUser(u User) error {
	if u.Username == "" {
		return fmt.Errorf("repo: empty username")
	}
	return s.db.Update(func(tx *storedb.Tx) error {
		users := tx.MustBucket(bucketUsers)
		if _, exists := users.Get([]byte(u.Username)); exists {
			return ErrUserExists
		}
		emails := tx.MustBucket(bucketEmails)
		if u.EmailHash != "" {
			if _, taken := emails.Get([]byte(u.EmailHash)); taken {
				return ErrEmailTaken
			}
			if err := emails.Put([]byte(u.EmailHash), []byte(u.Username)); err != nil {
				return err
			}
		}
		return users.Put([]byte(u.Username), encodeUser(u))
	})
}

// GetUser fetches an account by name.
func (s *Store) GetUser(username string) (User, bool, error) {
	var u User
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		data, ok := tx.MustBucket(bucketUsers).Get([]byte(username))
		if !ok {
			return nil
		}
		var derr error
		u, derr = decodeUser(data, true)
		found = derr == nil
		return derr
	})
	return u, found, err
}

// UpdateUser overwrites an existing account record. The username and
// e-mail hash are immutable; attempts to change the e-mail hash are
// rejected to keep the uniqueness index consistent.
func (s *Store) UpdateUser(u User) error {
	return s.db.Update(func(tx *storedb.Tx) error {
		users := tx.MustBucket(bucketUsers)
		data, ok := users.Get([]byte(u.Username))
		if !ok {
			return ErrUserNotFound
		}
		old, err := decodeUser(data, true)
		if err != nil {
			return err
		}
		if old.EmailHash != u.EmailHash {
			return fmt.Errorf("repo: e-mail hash is immutable")
		}
		if old.Trust != u.Trust {
			// A trust change reweighs every vote this user ever cast;
			// flag them so incremental aggregation revisits their
			// software.
			if err := markUserDirty(tx, u.Username); err != nil {
				return err
			}
		}
		return users.Put([]byte(u.Username), encodeUser(u))
	})
}

// trustTx reads one user's trust factor.
func trustTx(tx *storedb.Tx, username string) (float64, bool, error) {
	data, ok := tx.MustBucket(bucketUsers).Get([]byte(username))
	if !ok {
		return 0, false, nil
	}
	u, err := decodeUser(data, false)
	return u.Trust.Value, err == nil, err
}

// TrustForUsers fetches the trust factors of many users in one read
// transaction — the batch form of GetUser().Trust.Value for incremental
// aggregation. Unknown users are omitted.
func (s *Store) TrustForUsers(usernames []string) (map[string]float64, error) {
	out := make(map[string]float64, len(usernames))
	err := s.db.View(func(tx *storedb.Tx) error {
		for _, name := range usernames {
			if _, ok := out[name]; ok {
				continue
			}
			trust, ok, err := trustTx(tx, name)
			if err != nil {
				return err
			}
			if ok {
				out[name] = trust
			}
		}
		return nil
	})
	return out, err
}

// ForEachUser visits every account in username order, stopping early if
// fn returns false.
func (s *Store) ForEachUser(fn func(User) bool) error {
	return s.db.View(func(tx *storedb.Tx) error {
		var derr error
		tx.MustBucket(bucketUsers).ForEach(func(k, v []byte) bool {
			u, err := decodeUser(v, true)
			if err != nil {
				derr = err
				return false
			}
			return fn(u)
		})
		return derr
	})
}

// UsernameForEmailHash resolves the account bound to an e-mail hash.
func (s *Store) UsernameForEmailHash(emailHash string) (string, bool, error) {
	var name string
	var found bool
	err := s.db.View(func(tx *storedb.Tx) error {
		v, ok := tx.MustBucket(bucketEmails).Get([]byte(emailHash))
		if ok {
			name, found = string(v), true
		}
		return nil
	})
	return name, found, err
}
