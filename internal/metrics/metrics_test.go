package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	if !almost(Percentile(xs, 0), 1) || !almost(Percentile(xs, 100), 5) {
		t.Fatal("extreme percentiles wrong")
	}
	if !almost(Percentile(xs, 50), 3) {
		t.Fatal("median wrong")
	}
	if !almost(Percentile(xs, 25), 2) {
		t.Fatal("p25 wrong")
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSE(t *testing.T) {
	p := []float64{1, 2, 3}
	a := []float64{1, 2, 3}
	if RMSE(p, a) != 0 {
		t.Fatal("identical slices must have zero error")
	}
	p2 := []float64{2, 3, 4}
	if !almost(RMSE(p2, a), 1) {
		t.Fatal("unit offset error wrong")
	}
	if RMSE(nil, nil) != 0 {
		t.Fatal("empty error must be 0")
	}
}

func TestConfusion(t *testing.T) {
	c := NewConfusion("legit", "spyware", "malware")
	c.Add("legit", "legit")
	c.Add("legit", "spyware")
	c.Add("malware", "malware")
	c.Add("malware", "malware")
	if c.Total() != 4 {
		t.Fatalf("Total = %d", c.Total())
	}
	if !almost(c.Accuracy(), 0.75) {
		t.Fatalf("Accuracy = %v", c.Accuracy())
	}
	if c.counts[2][2] != 2 {
		t.Fatal("Count wrong")
	}
	s := c.String()
	if !strings.Contains(s, "legit") || !strings.Contains(s, "2") {
		t.Fatalf("render missing content:\n%s", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown label must panic")
		}
	}()
	c.Add("virus", "legit")
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "score")
	tb.AddRow("alpha", "1.0")
	tb.AddRowf("beta", 2.345)
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "2.35") {
		t.Fatalf("table render wrong:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("table has %d lines", len(lines))
	}
	// Short rows pad; long rows panic.
	tb.AddRow("only-name")
	defer func() {
		if recover() == nil {
			t.Fatal("over-long row must panic")
		}
	}()
	tb.AddRow("a", "b", "c")
}
