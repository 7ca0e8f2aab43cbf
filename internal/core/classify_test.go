package core

import (
	"testing"
	"testing/quick"
)

func TestClassifyMatchesTable1(t *testing.T) {
	// The exact nine cells of Table 1, numbered as in the paper.
	cases := []struct {
		consent     Consent
		consequence Consequence
		want        Category
		wantName    string
	}{
		{ConsentHigh, ConsequenceTolerable, CategoryLegitimate, "legitimate software"},
		{ConsentHigh, ConsequenceModerate, CategoryAdverse, "adverse software"},
		{ConsentHigh, ConsequenceSevere, CategoryDoubleAgent, "double agents"},
		{ConsentMedium, ConsequenceTolerable, CategorySemiTransparent, "semi-transparent software"},
		{ConsentMedium, ConsequenceModerate, CategoryUnsolicited, "unsolicited software"},
		{ConsentMedium, ConsequenceSevere, CategorySemiParasite, "semi-parasites"},
		{ConsentLow, ConsequenceTolerable, CategoryCovert, "covert software"},
		{ConsentLow, ConsequenceModerate, CategoryTrojan, "trojans"},
		{ConsentLow, ConsequenceSevere, CategoryParasite, "parasites"},
	}
	for _, c := range cases {
		got := Classify(c.consent, c.consequence)
		if got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.consent, c.consequence, got, c.want)
		}
		if got.String() != c.wantName {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), c.wantName)
		}
		if int(got) != int(c.want) {
			t.Errorf("cell number = %d, want %d", int(got), int(c.want))
		}
	}
}

func TestCategoryRoundTrip(t *testing.T) {
	// Classify(cat.Consent(), cat.Consequence()) == cat for all nine cells.
	for cat := CategoryLegitimate; cat <= CategoryParasite; cat++ {
		if got := Classify(cat.Consent(), cat.Consequence()); got != cat {
			t.Errorf("round trip of %v gives %v", cat, got)
		}
	}
}

func TestVerdictBoundaries(t *testing.T) {
	// Paper: low consent OR severe consequences => malware;
	// high consent AND tolerable consequences => legitimate;
	// everything else => spyware.
	wants := map[Category]Verdict{
		CategoryLegitimate:      VerdictLegitimate,
		CategoryAdverse:         VerdictSpyware,
		CategoryDoubleAgent:     VerdictMalware,
		CategorySemiTransparent: VerdictSpyware,
		CategoryUnsolicited:     VerdictSpyware,
		CategorySemiParasite:    VerdictMalware,
		CategoryCovert:          VerdictMalware,
		CategoryTrojan:          VerdictMalware,
		CategoryParasite:        VerdictMalware,
	}
	for cat, want := range wants {
		if got := cat.Verdict(); got != want {
			t.Errorf("%v.Verdict() = %v, want %v", cat, got, want)
		}
	}
}

func TestVerdictTotality(t *testing.T) {
	// Every (consent, consequence) pair lands in exactly one verdict,
	// and the split is exhaustive: 1 legitimate, 3 spyware, 5 malware.
	counts := map[Verdict]int{}
	for cat := CategoryLegitimate; cat <= CategoryParasite; cat++ {
		counts[cat.Verdict()]++
	}
	if counts[VerdictLegitimate] != 1 || counts[VerdictSpyware] != 3 || counts[VerdictMalware] != 5 {
		t.Fatalf("verdict split = %v, want 1/3/5", counts)
	}
}

func TestTransformConsentEliminatesMedium(t *testing.T) {
	// Table 2 has no medium-consent row.
	for _, deceitful := range []bool{false, true} {
		got := TransformConsent(ConsentMedium, deceitful)
		if got == ConsentMedium {
			t.Fatalf("medium consent survives transform (deceitful=%v)", deceitful)
		}
		if deceitful && got != ConsentLow {
			t.Errorf("deceitful medium => %v, want low", got)
		}
		if !deceitful && got != ConsentHigh {
			t.Errorf("honest medium => %v, want high", got)
		}
	}
	// High and low consent are invariant.
	for _, c := range []Consent{ConsentLow, ConsentHigh} {
		for _, d := range []bool{false, true} {
			if got := TransformConsent(c, d); got != c {
				t.Errorf("TransformConsent(%v, %v) = %v, want unchanged", c, d, got)
			}
		}
	}
}

func TestTransformCategoryLandsInTable2(t *testing.T) {
	// After the transform, every cell is in one of the six Table 2 cells
	// (no medium consent), and the consequence axis is preserved.
	for cat := CategoryLegitimate; cat <= CategoryParasite; cat++ {
		for _, deceitful := range []bool{false, true} {
			got := TransformCategory(cat, deceitful)
			if got.Consent() == ConsentMedium {
				t.Errorf("transform of %v yields medium consent", cat)
			}
			if got.Consequence() != cat.Consequence() {
				t.Errorf("transform of %v changed consequence to %v", cat, got.Consequence())
			}
		}
	}
}

func TestTransformSpywareBecomesLegitimateOrMalware(t *testing.T) {
	// The paper's claim: "all software with medium user consent, i.e.
	// spyware, is transformed into either legitimate software or malware".
	for cat := CategoryLegitimate; cat <= CategoryParasite; cat++ {
		if cat.Consent() != ConsentMedium {
			continue
		}
		honest := TransformCategory(cat, false)
		deceit := TransformCategory(cat, true)
		// Deceitful grey-zone software drops to low consent: malware.
		if deceit.Verdict() != VerdictMalware {
			t.Errorf("deceitful %v => %v, want malware", cat, deceit.Verdict())
		}
		// Honest grey-zone software gains full, informed consent. On the
		// tolerable-consequence column that is exactly "legitimate
		// software"; Table 2 keeps the consequence axis, so moderate and
		// severe consequences land in the consented cells "adverse
		// software" and "double agents".
		if honest.Consent() != ConsentHigh {
			t.Errorf("honest %v => consent %v, want high", cat, honest.Consent())
		}
		if cat.Consequence() == ConsequenceTolerable && honest != CategoryLegitimate {
			t.Errorf("honest %v => %v, want legitimate software", cat, honest)
		}
	}
}

func TestConsentConsequenceStrings(t *testing.T) {
	if ConsentLow.String() != "low" || ConsentMedium.String() != "medium" || ConsentHigh.String() != "high" {
		t.Fatal("consent names wrong")
	}
	if ConsequenceTolerable.String() != "tolerable" || ConsequenceModerate.String() != "moderate" || ConsequenceSevere.String() != "severe" {
		t.Fatal("consequence names wrong")
	}
	if Consent(99).String() == "" || Consequence(99).String() == "" || Category(99).String() == "" || Verdict(99).String() == "" {
		t.Fatal("out-of-range values must still render")
	}
}

func TestClassifyQuickTotal(t *testing.T) {
	// Property: Classify is total over the valid domain and its output
	// always round-trips through Consent/Consequence.
	f := func(ci, qi uint8) bool {
		consent := Consent(ci % 3)
		consequence := Consequence(qi % 3)
		cat := Classify(consent, consequence)
		return cat >= CategoryLegitimate && cat <= CategoryParasite &&
			cat.Consent() == consent && cat.Consequence() == consequence
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
