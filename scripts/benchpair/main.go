// Command benchpair runs the paired-run rule of bench/README.md: it
// checks a base revision out into a temporary git worktree, alternates
// `go run ./bench` between that tree and this one (swapping which side
// goes first each pair, same seed on both sides of a pair), and prints,
// for every gated metric of BENCHMARK.json, both medians, both quartile
// ranges and how many pairs the change won.
//
//	make bench-pair BASE=HEAD~1 WORKLOAD=lookup_hot [PAIRS=10]
//
// Run it from the repository root. The worktree goes under $TMPDIR and
// is removed on exit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line `go run ./bench` prints.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision to compare against (required)")
	workload := flag.String("workload", "", "benchmark workload name (required)")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs int) error {
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bm struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	change, err := os.Getwd()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "base")
	if out, err := exec.Command("git", "worktree", "add", "--detach", tree, base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v\n%s", base, err, out)
	}
	defer exec.Command("git", "worktree", "remove", "--force", tree).Run()

	sides := [2]string{tree, change} // 0 = base, 1 = change
	names := [2]string{"base", "change"}
	var values [2]map[string][]float64
	for s := range values {
		values[s] = make(map[string][]float64)
	}
	for i := 1; i <= pairs; i++ {
		for _, s := range [2]int{i % 2, 1 - i%2} {
			res, err := bench(sides[s], workload, i)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, names[s], err)
			}
			for _, m := range bm.EndToEnd {
				values[s][m.Name] = append(values[s][m.Name], res.Metrics[m.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %-6s %d ops, %d failed\n", i, pairs, names[s], res.Attempted, res.Failed)
		}
	}

	fmt.Printf("%s, %d pairs, base %s\n", workload, pairs, base)
	fmt.Printf("%-26s %-6s %12s %25s %12s %25s %9s\n",
		"metric", "unit", "base median", "base q1..q3", "new median", "new q1..q3", "pairs won")
	for _, m := range bm.EndToEnd {
		b, c := values[0][m.Name], values[1][m.Name]
		won := 0
		for i := range b {
			if (m.Better == "higher" && c[i] > b[i]) || (m.Better != "higher" && c[i] < b[i]) {
				won++
			}
		}
		bq, cq := quartiles(b), quartiles(c)
		fmt.Printf("%-26s %-6s %12.4f %25s %12.4f %25s %6d/%d\n", m.Name, m.Unit,
			bq[1], span(bq), cq[1], span(cq), won, pairs)
	}
	return nil
}

// bench runs one untraced 8 s benchmark run in dir and parses its result
// line. A run with failed operations exits non-zero and ends the pairing.
func bench(dir, workload string, seed int) (*result, error) {
	cmd := exec.Command("go", "run", "./bench", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", "8", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go run ./bench: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// quartiles returns q1, the median and q3, interpolating linearly.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	for i := range q {
		pos := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

func span(q [3]float64) string { return fmt.Sprintf("%.4f..%.4f", q[0], q[2]) }
