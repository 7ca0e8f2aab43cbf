package repo

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"softreputation/internal/core"
)

func TestUserRecordQuickRoundTrip(t *testing.T) {
	f := func(name, pass, email string, signedUp, lastLogin int64, activated bool,
		trust float64, grown float64, week uint8) bool {
		in := User{
			Username:     name,
			PasswordHash: pass,
			EmailHash:    email,
			SignedUpAt:   time.Unix(0, signedUp).UTC(),
			LastLoginAt:  time.Unix(0, lastLogin).UTC(),
			Activated:    activated,
			Trust: core.Trust{
				Value:       trust,
				JoinedAt:    time.Unix(0, signedUp).UTC(),
				GrownInWeek: grown,
				WeekIdx:     int(week),
			},
		}
		enc := encodeUser(in)
		out, err := decodeUser(enc, true)
		if err != nil {
			return false
		}
		// The trust projection walks the same record: same trust state,
		// no identity strings.
		proj, err := decodeUser(enc, false)
		if err != nil || proj.Username+proj.PasswordHash+proj.EmailHash != "" ||
			math.Float64bits(proj.Trust.Value) != math.Float64bits(out.Trust.Value) ||
			proj.Trust.WeekIdx != out.Trust.WeekIdx || proj.Activated != out.Activated {
			return false
		}
		return out.Username == in.Username &&
			out.PasswordHash == in.PasswordHash &&
			out.EmailHash == in.EmailHash &&
			out.SignedUpAt.Equal(in.SignedUpAt) &&
			out.LastLoginAt.Equal(in.LastLoginAt) &&
			out.Activated == in.Activated &&
			out.Trust.Value == in.Trust.Value ||
			(in.Trust.Value != in.Trust.Value && out.Trust.Value != out.Trust.Value) // NaN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUserRecordZeroTimes(t *testing.T) {
	in := User{Username: "u", Trust: core.NewTrust(time.Time{})}
	out, err := decodeUser(encodeUser(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.SignedUpAt.IsZero() || !out.LastLoginAt.IsZero() {
		t.Fatal("zero times must round-trip as zero")
	}
}

func TestSoftwareRecordQuickRoundTrip(t *testing.T) {
	f := func(content []byte, name, vendor, version string, size int64, seen int64) bool {
		in := Software{
			Meta: core.SoftwareMeta{
				ID:       core.ComputeSoftwareID(content),
				FileName: name,
				FileSize: size,
				Vendor:   vendor,
				Version:  version,
			},
			FirstSeenAt: time.Unix(0, seen).UTC(),
		}
		out, err := decodeSoftware(encodeSoftware(in))
		if err != nil {
			return false
		}
		return out.Meta == in.Meta && out.FirstSeenAt.Equal(in.FirstSeenAt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRatingRecordQuickRoundTrip(t *testing.T) {
	f := func(score uint8, behaviors uint32, at int64, commentID uint64) bool {
		id := core.ComputeSoftwareID([]byte{1})
		in := core.Rating{
			UserID:    "user",
			Software:  id,
			Score:     int(score%10) + 1,
			Behaviors: core.Behavior(behaviors),
			At:        time.Unix(0, at).UTC(),
		}
		out, cid, err := decodeRating(appendRating(nil, in, commentID), id, "user")
		if err != nil {
			return false
		}
		return out.Score == in.Score && out.Behaviors == in.Behaviors &&
			out.At.Equal(in.At) && cid == commentID &&
			out.UserID == "user" && out.Software == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCommentRecordQuickRoundTrip(t *testing.T) {
	f := func(id uint64, user, text string, at int64, pos, neg uint16) bool {
		in := core.Comment{
			ID:       id,
			UserID:   user,
			Software: core.ComputeSoftwareID([]byte(text)),
			Text:     text,
			At:       time.Unix(0, at).UTC(),
			Positive: int(pos),
			Negative: int(neg),
		}
		out, err := decodeComment(appendComment(nil, in), id%2 == 0) // borrowed or copied: the same comment
		if err != nil {
			return false
		}
		return out.ID == in.ID && out.UserID == in.UserID &&
			out.Software == in.Software && out.Text == in.Text &&
			out.At.Equal(in.At) && out.Positive == in.Positive && out.Negative == in.Negative
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreRecordQuickRoundTrip(t *testing.T) {
	f := func(score float64, votes uint16, behaviors uint32, at int64) bool {
		id := core.ComputeSoftwareID([]byte{9})
		in := core.SoftwareScore{
			Software:   id,
			Score:      score,
			Votes:      int(votes),
			Behaviors:  core.Behavior(behaviors),
			ComputedAt: time.Unix(0, at).UTC(),
		}
		out, err := decodeScore(encodeScore(in), id)
		if err != nil {
			return false
		}
		scoreMatch := out.Score == in.Score || (in.Score != in.Score && out.Score != out.Score)
		return scoreMatch && out.Votes == in.Votes &&
			out.Behaviors == in.Behaviors && out.ComputedAt.Equal(in.ComputedAt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapPriorRoundTrip(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	id := core.ComputeSoftwareID([]byte("prior"))
	in := BootstrapPrior{Score: 7.25, Votes: 42, Behaviors: core.BehaviorDisplaysAds}
	if err := s.SetBootstrapPrior(id, in); err != nil {
		t.Fatal(err)
	}
	out, found, err := s.GetBootstrapPrior(id)
	if err != nil || !found || out != in {
		t.Fatalf("prior round trip = %+v, %v, %v", out, found, err)
	}
	if _, found, _ := s.GetBootstrapPrior(core.ComputeSoftwareID([]byte("other"))); found {
		t.Fatal("phantom prior")
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	rec := appendUint64([]byte{3}, 12345)
	rec = appendInt64(rec, -42)
	rec = appendFloat64(rec, 3.5)
	rec = appendBool(rec, true)
	rec = appendString(rec, "hello")
	rec = appendBytes(rec, []byte{1, 2, 3})
	rec = appendTime(rec, time.Time{})

	d, err := newDecoder(rec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.uint64(); v != 12345 {
		t.Fatal("uint64")
	}
	if v, _ := d.int64(); v != -42 {
		t.Fatal("int64")
	}
	if v, _ := d.float64(); v != 3.5 {
		t.Fatal("float64")
	}
	if v, _ := d.bool(); !v {
		t.Fatal("bool")
	}
	if v, _ := d.string(); v != "hello" {
		t.Fatal("string")
	}
	if v, _ := d.bytesField(); len(v) != 3 || v[2] != 3 {
		t.Fatal("bytes")
	}
	if v, _ := d.time(); !v.IsZero() {
		t.Fatal("zero time")
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	// finish with trailing bytes fails.
	d2, _ := newDecoder(append(rec, 0xFF), 3)
	drainAll(&d2)
	if err := d2.finish(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func drainAll(d *decoder) {
	d.uint64()
	d.int64()
	d.float64()
	d.bool()
	d.string()
	d.bytesField()
	d.time()
}

func TestDecoderErrorPaths(t *testing.T) {
	if _, err := newDecoder(nil, 1); err == nil {
		t.Fatal("nil record accepted")
	}
	d, _ := newDecoder([]byte{1}, 1)
	if _, err := d.uint64(); err == nil {
		t.Fatal("empty uvarint accepted")
	}
	d, _ = newDecoder([]byte{1, 0x80}, 1) // truncated varint
	if _, err := d.int64(); err == nil {
		t.Fatal("truncated varint accepted")
	}
	d, _ = newDecoder([]byte{1, 1, 2, 3}, 1)
	if _, err := d.float64(); err == nil {
		t.Fatal("short float accepted")
	}
	d, _ = newDecoder([]byte{1}, 1)
	if _, err := d.bool(); err == nil {
		t.Fatal("empty bool accepted")
	}
	d, _ = newDecoder([]byte{1, 7}, 1) // bool value 7
	if _, err := d.bool(); err == nil {
		t.Fatal("bad bool accepted")
	}
	d, _ = newDecoder([]byte{1, 5, 'a'}, 1) // string claims 5 bytes, has 1
	if _, err := d.string(); err == nil {
		t.Fatal("short string accepted")
	}
	d, _ = newDecoder([]byte{1, 5, 'a'}, 1)
	if _, err := d.bytesField(); err == nil {
		t.Fatal("short bytes accepted")
	}
}
