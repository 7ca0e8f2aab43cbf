// Package metrics provides the small statistical toolkit used by the
// experiment harness: summary statistics, error measures, confusion
// matrices and plain-text table rendering for reproducing the paper's
// tables on a terminal.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// RMSE returns the root-mean-square error between predicted and actual.
// The slices must have equal, non-zero length.
func RMSE(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) {
		panic("metrics: RMSE length mismatch")
	}
	if len(predicted) == 0 {
		return 0
	}
	var sum float64
	for i := range predicted {
		d := predicted[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(predicted)))
}

// Confusion is a square confusion matrix over a fixed label set.
type Confusion struct {
	labels []string
	index  map[string]int
	counts [][]int
}

// NewConfusion creates a confusion matrix over the given ordered labels.
func NewConfusion(labels ...string) *Confusion {
	idx := make(map[string]int, len(labels))
	for i, l := range labels {
		idx[l] = i
	}
	counts := make([][]int, len(labels))
	for i := range counts {
		counts[i] = make([]int, len(labels))
	}
	return &Confusion{labels: append([]string(nil), labels...), index: idx, counts: counts}
}

// Add records one observation with the given ground-truth and predicted
// labels. Unknown labels panic: the label set is fixed at construction.
func (c *Confusion) Add(truth, predicted string) {
	ti, ok := c.index[truth]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown truth label %q", truth))
	}
	pi, ok := c.index[predicted]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown predicted label %q", predicted))
	}
	c.counts[ti][pi]++
}

// Total returns the number of observations recorded.
func (c *Confusion) Total() int {
	var n int
	for _, row := range c.counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the fraction of observations on the diagonal, or 0 if
// the matrix is empty.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	var diag int
	for i := range c.counts {
		diag += c.counts[i][i]
	}
	return float64(diag) / float64(total)
}

// String renders the matrix as an aligned text table, truth labels as rows.
func (c *Confusion) String() string {
	t := NewTable(append([]string{"truth\\pred"}, c.labels...)...)
	for i, l := range c.labels {
		row := make([]string, 0, len(c.labels)+1)
		row = append(row, l)
		for j := range c.labels {
			row = append(row, fmt.Sprintf("%d", c.counts[i][j]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Table is a minimal aligned plain-text table used to print the paper's
// tables and experiment results.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: append([]string(nil), header...)}
}

// AddRow appends one row. Short rows are padded with empty cells; long
// rows panic since they indicate a programming error.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic("metrics: row longer than header")
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends one row, formatting each cell with fmt.Sprint.
func (t *Table) AddRowf(cells ...interface{}) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.2f", v)
		default:
			s[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(s...)
}

// String renders the table with aligned columns and a separator rule.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	var ruleLen int
	for i, w := range widths {
		if i > 0 {
			ruleLen += 2
		}
		ruleLen += w
	}
	b.WriteString(strings.Repeat("-", ruleLen))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
