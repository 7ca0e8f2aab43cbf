package simulation

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runEntry runs the registry entry id at seed, reduced when quick, and
// returns its result as the experiment's own result type.
func runEntry[R fmt.Stringer](id string, seed int64, quick bool) (R, error) {
	var r R
	for _, e := range Experiments() {
		if e.ID == id {
			res, err := e.Run(seed, quick)
			if res != nil {
				r = res.(R)
			}
			return r, err
		}
	}
	return r, fmt.Errorf("no experiment %q", id)
}

// notRun is the one EXPERIMENTS.md section no entry runs: E14 is the
// storage substrate's benchmarks (BenchmarkE14…), not a simulation.
const notRun = "e14"

// TestExperimentRegistry checks the list's shape and holds it to
// EXPERIMENTS.md: every "## T<n> —" or "## E<n> —" heading names an
// entry ("table<n>", "e<n>") and every entry has a heading, notRun
// aside.
func TestExperimentRegistry(t *testing.T) {
	all := Experiments()
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment entry: %+v", e)
		}
		if seen[e.ID] || e.ID != strings.ToLower(e.ID) {
			t.Fatalf("experiment id %q repeats or is not lowercase", e.ID)
		}
		seen[e.ID] = true
	}
	// An alias is one more lowercase spelling that names exactly one
	// experiment.
	for _, e := range all {
		if e.Alias == "" {
			continue
		}
		if seen[e.Alias] || e.Alias != strings.ToLower(e.Alias) {
			t.Fatalf("alias %q of %q collides or is not lowercase", e.Alias, e.ID)
		}
		seen[e.Alias] = true
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([TE])(\d+) — `).FindAllStringSubmatch(string(doc), -1) {
		id := "e" + m[2]
		if m[1] == "T" {
			id = "table" + m[2]
		}
		documented[id] = true
	}
	if !documented[notRun] || seen[notRun] {
		t.Errorf("%q must be an EXPERIMENTS.md heading and no entry", notRun)
	}
	delete(documented, notRun)
	for _, e := range all {
		if !documented[e.ID] {
			t.Errorf("entry %q has no heading in EXPERIMENTS.md", e.ID)
		}
		delete(documented, e.ID)
	}
	for id := range documented {
		t.Errorf("EXPERIMENTS.md documents %q, which no entry runs", id)
	}
}
