// Command simulate regenerates the paper's tables and every experiment
// in EXPERIMENTS.md as human-readable text tables. It runs the entries
// of simulation.Experiments, the list the root benchmarks and the tests
// run too; each entry holds its own full-scale and -quick configuration.
//
// Usage:
//
//	simulate -exp all            # everything, full scale
//	simulate -exp table1,e6,e9   # a selection
//	simulate -exp e1 -quick      # reduced scale for a fast pass
//	simulate -list               # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"softreputation/internal/simulation"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "reduced scale for a fast pass")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	all := simulation.Experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	run, err := selectExperiments(all, *exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v (use -list)\n", err)
		os.Exit(2)
	}
	for _, e := range run {
		fmt.Printf("==> %s — %s\n\n", e.ID, e.Desc)
		res, err := e.Run(*seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simulate: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
	}
}

// selectExperiments resolves a comma-separated list of ids, aliases and
// "all" (case and spaces ignored, empty items skipped) to the entries
// it names, in registry order. An item that names no entry is an error
// before anything runs, as is a list that names none.
func selectExperiments(all []simulation.Experiment, spec string) ([]simulation.Experiment, error) {
	want := map[string]bool{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.ToLower(strings.TrimSpace(item))
		if item == "" {
			continue
		}
		found := false
		for _, e := range all {
			if item == "all" || item == e.ID || item == e.Alias {
				want[e.ID], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("no experiment %q", item)
		}
	}
	var sel []simulation.Experiment
	for _, e := range all {
		if want[e.ID] {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("no experiment matches %q", spec)
	}
	return sel, nil
}
