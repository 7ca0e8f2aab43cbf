package main

import (
	"slices"
	"strings"
	"testing"

	"softreputation/internal/simulation"
)

// TestSelectExperiments resolves -exp lists: every item must name an
// entry before anything runs, and the selection keeps registry order.
func TestSelectExperiments(t *testing.T) {
	all := simulation.Experiments()
	var every []string
	for _, e := range all {
		every = append(every, e.ID)
	}
	for _, tc := range []struct {
		spec    string
		want    []string // selected ids, nil when the spec is refused
		errName string   // what the refusal must name
	}{
		{spec: "all", want: every},
		{spec: "all,e2", want: every},
		{spec: "chaos", want: []string{"e17"}},
		{spec: "e9, Table1 ,e6,", want: []string{"table1", "e6", "e9"}},
		{spec: "e17,chaos", want: []string{"e17"}},
		{spec: "e1,nosuch", errName: `"nosuch"`},
		{spec: "nosuch,all", errName: `"nosuch"`},
		{spec: "e14", errName: `"e14"`},
		{spec: "", errName: `""`},
		{spec: " , ", errName: `" , "`},
	} {
		sel, err := selectExperiments(all, tc.spec)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.errName) {
				t.Errorf("-exp %q: err %v, want one naming %s", tc.spec, err, tc.errName)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.spec, err)
			continue
		}
		var ids []string
		for _, e := range sel {
			ids = append(ids, e.ID)
		}
		if !slices.Equal(ids, tc.want) {
			t.Errorf("-exp %q selected %v, want %v", tc.spec, ids, tc.want)
		}
	}
}

func TestCheapExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	sel, err := selectExperiments(simulation.Experiments(), "table1,e2")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sel {
		res, err := e.Run(1, true)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if res.String() == "" {
			t.Fatalf("%s rendered empty", e.ID)
		}
	}
}
