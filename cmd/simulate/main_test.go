package main

import (
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	all := experiments()
	if len(all) < 16 {
		t.Fatalf("registry holds %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.id == "" || e.desc == "" || e.run == nil {
			t.Fatalf("incomplete experiment entry: %+v", e)
		}
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.id != strings.ToLower(e.id) {
			t.Fatalf("experiment id %q must be lowercase", e.id)
		}
	}
	// An alias is one more lowercase spelling that names exactly one
	// experiment.
	for _, e := range all {
		if e.alias == "" {
			continue
		}
		if seen[e.alias] || e.alias != strings.ToLower(e.alias) {
			t.Fatalf("alias %q of %q collides or is not lowercase", e.alias, e.id)
		}
		seen[e.alias] = true
	}
	// The ids documented in EXPERIMENTS.md must exist.
	for _, id := range []string{"table1", "table2", "e1", "e6", "e9", "e15", "e16"} {
		if !seen[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
}

func TestCheapExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	for _, id := range []string{"table1", "e2"} {
		for _, e := range experiments() {
			if e.id != id {
				continue
			}
			res, err := e.run(1, true)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.String() == "" {
				t.Fatalf("%s rendered empty", id)
			}
		}
	}
}
