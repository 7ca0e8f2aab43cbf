// Package core implements the paper's primary contribution: the domain
// model of a collaborative software reputation system. It defines
// content-addressed software identity, the privacy-invasive-software
// classification (Tables 1 and 2 of the paper), user trust factors with
// the weekly growth cap of Section 3.2, ratings and comments, and the
// trust-weighted score aggregation that the server recomputes every
// 24 hours.
//
// The package is pure domain logic: it performs no storage or network
// I/O. Persistence lives in internal/repo and orchestration in
// internal/server.
package core

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// SoftwareID identifies an executable by the SHA-1 digest of its file
// content, as Section 3.3 of the paper prescribes: the identity is
// derived from the program's instructions, so behaviour cannot change
// without the identity changing too.
type SoftwareID [sha1.Size]byte

// ComputeSoftwareID returns the identity of an executable's content.
func ComputeSoftwareID(content []byte) SoftwareID {
	return sha1.Sum(content)
}

// String returns the lowercase hex form of the identity.
func (id SoftwareID) String() string {
	return hex.EncodeToString(id[:])
}

// IsZero reports whether the identity is the zero value, which no real
// file content produces in practice and which the system treats as
// "unset".
func (id SoftwareID) IsZero() bool {
	return id == SoftwareID{}
}

// ErrBadSoftwareID and ErrUnknownBehavior are returned for an identity
// or a behaviour list that does not parse: the sender's mistake.
var (
	ErrBadSoftwareID   = errors.New("core: malformed software id")
	ErrUnknownBehavior = errors.New("core: unknown behaviour")
)

// ParseSoftwareID parses the hex form produced by String, surrounding
// space allowed, from a string or from a request's bytes.
func ParseSoftwareID[S string | []byte](s S) (SoftwareID, error) {
	var id SoftwareID
	// The form String produces decodes through a buffer on the stack;
	// anything else takes the long way round, to its error or through
	// the space around it.
	var digits [2 * sha1.Size]byte
	if len(s) == len(digits) {
		if _, err := hex.Decode(id[:], digits[:copy(digits[:], s)]); err == nil {
			return id, nil
		}
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(s)))
	if err != nil {
		return SoftwareID{}, fmt.Errorf("%w: %v", ErrBadSoftwareID, err)
	}
	if len(raw) != sha1.Size {
		return SoftwareID{}, fmt.Errorf("%w: must be %d bytes, got %d", ErrBadSoftwareID, sha1.Size, len(raw))
	}
	return SoftwareID(raw), nil
}

// Behavior is a bitmask of the concrete software behaviours the paper's
// reputation system collects beyond a numeric score: "it displays pop-up
// ads, registers itself as a start-up program and does not provide a
// functioning uninstall option" (§4.3), plus the information-gathering
// behaviours of §1.
type Behavior uint32

// The behaviour flags users can report about software.
const (
	// BehaviorDisplaysAds marks software that shows pop-up or banner
	// advertisements.
	BehaviorDisplaysAds Behavior = 1 << iota
	// BehaviorTracksUsage marks software that records user behaviour
	// patterns or visited websites.
	BehaviorTracksUsage
	// BehaviorStartupRegistration marks software that registers itself
	// to run at system start-up.
	BehaviorStartupRegistration
	// BehaviorBrokenUninstall marks software with a missing or
	// incomplete removal routine.
	BehaviorBrokenUninstall
	// BehaviorBundledSoftware marks installers that bundle additional
	// third-party programs.
	BehaviorBundledSoftware
	// BehaviorSendsPersonalData marks software that transmits personal
	// information to central servers.
	BehaviorSendsPersonalData
	// BehaviorAltersSystemSettings marks software that changes system
	// configuration (home pages, search providers, security settings).
	BehaviorAltersSystemSettings
	// BehaviorKeylogging marks software that captures keystrokes.
	BehaviorKeylogging

	behaviorEnd
)

// NumBehaviors is the number of defined behaviour flags.
const NumBehaviors = 8

var behaviorNames = map[Behavior]string{
	BehaviorDisplaysAds:          "displays-ads",
	BehaviorTracksUsage:          "tracks-usage",
	BehaviorStartupRegistration:  "startup-registration",
	BehaviorBrokenUninstall:      "broken-uninstall",
	BehaviorBundledSoftware:      "bundled-software",
	BehaviorSendsPersonalData:    "sends-personal-data",
	BehaviorAltersSystemSettings: "alters-system-settings",
	BehaviorKeylogging:           "keylogging",
}

// Has reports whether b includes every flag in flags.
func (b Behavior) Has(flags Behavior) bool { return b&flags == flags }

// Count returns the number of flags set.
func (b Behavior) Count() int {
	n := 0
	for f := Behavior(1); f < behaviorEnd; f <<= 1 {
		if b&f != 0 {
			n++
		}
	}
	return n
}

// String renders the set flags as a comma-separated list, or "none".
func (b Behavior) String() string {
	if b&(behaviorEnd-1) == 0 {
		return "none" // the usual case, without Append's buffer
	}
	return string(b.Append(nil))
}

// Append appends String's rendering to dst.
func (b Behavior) Append(dst []byte) []byte {
	start := len(dst)
	for f := Behavior(1); f < behaviorEnd; f <<= 1 {
		if b&f != 0 {
			if len(dst) > start {
				dst = append(dst, ',')
			}
			dst = append(dst, behaviorNames[f]...)
		}
	}
	if len(dst) == start {
		return append(dst, "none"...)
	}
	return dst
}

// ParseBehavior parses the comma-separated form produced by String.
func ParseBehavior(s string) (Behavior, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return 0, nil
	}
	var b Behavior
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for f, name := range behaviorNames {
			if name == part {
				b |= f
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("%w %q", ErrUnknownBehavior, part)
		}
	}
	return b, nil
}

// SoftwareMeta is the per-executable record of Section 3.3: everything
// the database stores about a file besides ratings and comments.
type SoftwareMeta struct {
	// ID is the SHA-1 digest of the executable content.
	ID SoftwareID
	// FileName is the executable's file name.
	FileName string
	// FileSize is the executable's size in bytes.
	FileSize int64
	// Vendor is the company name embedded by the developer; empty when
	// the developer stripped it, which §3.3 treats as a PIS signal.
	Vendor string
	// Version is the file version string, when present.
	Version string
}

// VendorKnown reports whether the executable carries a company name.
// Software without one cannot benefit from vendor-level reputation and
// is treated as more suspicious (§3.3).
func (m SoftwareMeta) VendorKnown() bool { return strings.TrimSpace(m.Vendor) != "" }
