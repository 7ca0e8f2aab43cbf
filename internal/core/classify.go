package core

import "fmt"

// This file implements the paper's classification of privacy-invasive
// software (Table 1) and the transformation a deployed reputation system
// induces on it (Table 2).
//
// Table 1 places software in a 3×3 matrix of user consent (low, medium,
// high) against negative user consequences (tolerable, moderate, severe).
// Software with low consent or severe consequences is malware; software
// with high consent and tolerable consequences is legitimate; the
// remaining grey zone — medium consent or moderate consequences — is
// spyware, or privacy-invasive software proper.
//
// Table 2 captures the paper's central argument (§4.1): once users reach
// *informed* decisions through the reputation system, medium consent
// disappears — software either discloses its behaviour and is consented
// to (high consent) or relies on deceit and drops to low consent,
// i.e. malware.

// Consent is the user's informed-consent level of Table 1.
type Consent int

// Consent levels, ordered from low to high.
const (
	ConsentLow Consent = iota
	ConsentMedium
	ConsentHigh
)

// String returns the consent level's name.
func (c Consent) String() string {
	switch c {
	case ConsentLow:
		return "low"
	case ConsentMedium:
		return "medium"
	case ConsentHigh:
		return "high"
	default:
		return fmt.Sprintf("Consent(%d)", int(c))
	}
}

// Consequence is the negative-user-consequence severity of Table 1.
type Consequence int

// Consequence severities, ordered from tolerable to severe.
const (
	ConsequenceTolerable Consequence = iota
	ConsequenceModerate
	ConsequenceSevere
)

// String returns the consequence severity's name.
func (c Consequence) String() string {
	switch c {
	case ConsequenceTolerable:
		return "tolerable"
	case ConsequenceModerate:
		return "moderate"
	case ConsequenceSevere:
		return "severe"
	default:
		return fmt.Sprintf("Consequence(%d)", int(c))
	}
}

// Category is one of the nine cells of Table 1.
type Category int

// The nine cells of Table 1, numbered as in the paper.
const (
	// CategoryLegitimate is cell 1: high consent, tolerable consequences.
	CategoryLegitimate Category = iota + 1
	// CategoryAdverse is cell 2: high consent, moderate consequences.
	CategoryAdverse
	// CategoryDoubleAgent is cell 3: high consent, severe consequences.
	CategoryDoubleAgent
	// CategorySemiTransparent is cell 4: medium consent, tolerable
	// consequences.
	CategorySemiTransparent
	// CategoryUnsolicited is cell 5: medium consent, moderate
	// consequences.
	CategoryUnsolicited
	// CategorySemiParasite is cell 6: medium consent, severe
	// consequences.
	CategorySemiParasite
	// CategoryCovert is cell 7: low consent, tolerable consequences.
	CategoryCovert
	// CategoryTrojan is cell 8: low consent, moderate consequences.
	CategoryTrojan
	// CategoryParasite is cell 9: low consent, severe consequences.
	CategoryParasite
)

var categoryNames = [...]string{
	CategoryLegitimate:      "legitimate software",
	CategoryAdverse:         "adverse software",
	CategoryDoubleAgent:     "double agents",
	CategorySemiTransparent: "semi-transparent software",
	CategoryUnsolicited:     "unsolicited software",
	CategorySemiParasite:    "semi-parasites",
	CategoryCovert:          "covert software",
	CategoryTrojan:          "trojans",
	CategoryParasite:        "parasites",
}

// String returns the paper's name for the cell.
func (c Category) String() string {
	if c >= CategoryLegitimate && c <= CategoryParasite {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Classify maps a (consent, consequence) pair to its Table 1 cell.
func Classify(consent Consent, consequence Consequence) Category {
	row := map[Consent]int{ConsentHigh: 0, ConsentMedium: 1, ConsentLow: 2}[consent]
	col := map[Consequence]int{
		ConsequenceTolerable: 0,
		ConsequenceModerate:  1,
		ConsequenceSevere:    2,
	}[consequence]
	return Category(row*3 + col + 1)
}

// Consent returns the consent level of the cell.
func (c Category) Consent() Consent {
	switch {
	case c <= CategoryDoubleAgent:
		return ConsentHigh
	case c <= CategorySemiParasite:
		return ConsentMedium
	default:
		return ConsentLow
	}
}

// Consequence returns the consequence severity of the cell.
func (c Category) Consequence() Consequence {
	switch (int(c) - 1) % 3 {
	case 0:
		return ConsequenceTolerable
	case 1:
		return ConsequenceModerate
	default:
		return ConsequenceSevere
	}
}

// Verdict is the coarse three-way split the paper derives from Table 1.
type Verdict int

// Verdicts, from benign to malicious.
const (
	// VerdictLegitimate covers software with high consent and tolerable
	// consequences.
	VerdictLegitimate Verdict = iota
	// VerdictSpyware covers the grey zone: medium consent or moderate
	// consequences, excluding anything already malware.
	VerdictSpyware
	// VerdictMalware covers software with low consent or severe
	// consequences.
	VerdictMalware
)

// String returns the verdict's name.
func (v Verdict) String() string {
	switch v {
	case VerdictLegitimate:
		return "legitimate"
	case VerdictSpyware:
		return "spyware"
	case VerdictMalware:
		return "malware"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Verdict implements the paper's boundaries: "All software that has low
// user consent, or which impairs severe negative consequences should be
// regarded as malicious software. … any software that has high user
// consent, and which results in tolerable negative consequences should
// be regarded as legitimate software. By this follows that spyware
// constitutes the remaining group".
func (c Category) Verdict() Verdict {
	switch {
	case c.Consent() == ConsentLow || c.Consequence() == ConsequenceSevere:
		return VerdictMalware
	case c.Consent() == ConsentHigh && c.Consequence() == ConsequenceTolerable:
		return VerdictLegitimate
	default:
		return VerdictSpyware
	}
}

// TransformConsent models Table 2: with a reputation system providing
// informed decisions, medium consent is eliminated. Software whose
// behaviour the reputation system exposes truthfully gains high consent
// — the user knowingly accepts it — while software that relies on deceit
// (hidden vendor, per-copy re-hashing, behaviour contradicting its
// description) falls to low consent and is handled as malware.
// High and low consent are unchanged: the reputation system adds
// information, it does not remove any.
func TransformConsent(c Consent, deceitful bool) Consent {
	if c != ConsentMedium {
		return c
	}
	if deceitful {
		return ConsentLow
	}
	return ConsentHigh
}

// TransformCategory applies TransformConsent to a Table 1 cell,
// returning the Table 2 cell the software lands in.
func TransformCategory(c Category, deceitful bool) Category {
	return Classify(TransformConsent(c.Consent(), deceitful), c.Consequence())
}
