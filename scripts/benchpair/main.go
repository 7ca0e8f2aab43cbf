// Command benchpair runs the paired-run rule of bench/README.md: it
// unpacks a base revision (git archive) into a temporary directory,
// alternates `go run ./bench` between that tree and this one (swapping
// which side goes first each pair, same seed on both sides of a pair),
// and prints, for every gated metric of BENCHMARK.json, both medians,
// both quartile ranges and how many pairs the change won, then the same
// for every per-layer metric that all the runs printed (reported, not
// gated). With METRIC set, the first line is the verdict on that metric:
// a claimed gain is met when the change wins at least nine tenths of the
// pairs and the medians are apart, in the better direction, by more than
// the base's own quartile range.
//
//	make bench-pair BASE=HEAD~1 WORKLOAD=lookup_hot [PAIRS=10] [METRIC=server_allocs_per_op]
//
// Run it from the repository root. The base tree goes under $TMPDIR and
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
	"slices"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line `go run ./bench` prints, and the per-layer
// metrics on the lines before it.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	layers map[string]float64
}

func main() {
	base := flag.String("base", "", "revision to compare against (required)")
	workload := flag.String("workload", "", "benchmark workload name (required)")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	claimed := flag.String("metric", "", "gated metric the change claims to improve; its verdict is printed first")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *claimed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs int, claimed string) error {
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bm struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(spec, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if claimed != "" && !slices.ContainsFunc(bm.EndToEnd, func(m metric) bool { return m.Name == claimed }) {
		return fmt.Errorf("METRIC %q is not a gated metric of BENCHMARK.json", claimed)
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
	if err := unpack(base, tree); err != nil {
		return err
	}

	sides := [2]string{tree, change} // 0 = base, 1 = change
	names := [2]string{"base", "change"}
	var values, layers [2]map[string][]float64
	for s := range values {
		values[s], layers[s] = make(map[string][]float64), make(map[string][]float64)
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
			for name, v := range res.layers {
				layers[s][name] = append(layers[s][name], v)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %-6s %d ops, %d failed\n", i, pairs, names[s], res.Attempted, res.Failed)
		}
	}

	var verdict string
	var table bytes.Buffer
	row := func(m metric, b, c []float64) (won int, bq, cq [3]float64) {
		for i := range b {
			if (m.Better == "higher" && c[i] > b[i]) || (m.Better != "higher" && c[i] < b[i]) {
				won++
			}
		}
		bq, cq = quartiles(b), quartiles(c)
		fmt.Fprintf(&table, "%-32s %-6s %12.4f %25s %12.4f %25s %6d/%d\n", m.Name, m.Unit,
			bq[1], span(bq), cq[1], span(cq), won, pairs)
		return won, bq, cq
	}
	for _, m := range bm.EndToEnd {
		won, bq, cq := row(m, values[0][m.Name], values[1][m.Name])
		if m.Name == claimed {
			gain := bq[1] - cq[1]
			if m.Better == "higher" {
				gain = -gain
			}
			word := "NOT MET"
			if 10*won >= 9*pairs && gain > bq[2]-bq[0] {
				word = "MET"
			}
			verdict = fmt.Sprintf("claim %s: %s on %s won %d/%d pairs (needs 9 in 10), medians %.4f -> %.4f, apart by %.4f against a base quartile range of %.4f\n",
				word, m.Name, workload, won, pairs, bq[1], cq[1], gain, bq[2]-bq[0])
		}
	}
	fmt.Fprintln(&table, "per layer (reported, not gated)")
	for _, m := range bm.PerLayer {
		if b, c := layers[0][m.Name], layers[1][m.Name]; len(b) == pairs && len(c) == pairs {
			row(m, b, c)
		}
	}
	fmt.Print(verdict)
	fmt.Printf("%s, %d pairs, base %s\n", workload, pairs, base)
	fmt.Printf("%-32s %-6s %12s %25s %12s %25s %9s\n",
		"metric", "unit", "base median", "base q1..q3", "new median", "new q1..q3", "pairs won")
	_, err = table.WriteTo(os.Stdout)
	return err
}

// unpack extracts revision rev of this repository into dir.
func unpack(rev, dir string) error {
	tarball := dir + ".tar"
	if out, err := exec.Command("git", "archive", "--format=tar", "-o", tarball, rev).CombinedOutput(); err != nil {
		return fmt.Errorf("git archive %s: %v\n%s", rev, err, out)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	if out, err := exec.Command("tar", "-xf", tarball, "-C", dir).CombinedOutput(); err != nil {
		return fmt.Errorf("tar -xf %s: %v\n%s", tarball, err, out)
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
	res := result{layers: make(map[string]float64)}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	// "  <name>   <value> <unit> ...": every metric line of the report.
	for _, line := range lines {
		if f := strings.Fields(string(line)); len(f) >= 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				res.layers[f[0]] = v
			}
		}
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
