package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"adapt/internal/sim"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almostEq(got, 5, 1e-9) {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("Percentile(nil) should be NaN")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-9) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if got := Stddev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-9) {
		t.Fatalf("Stddev = %v", got)
	}
	if got := Stddev([]float64{1}); got != 0 {
		t.Fatalf("Stddev single = %v, want 0", got)
	}
}

func TestSummarizeAndOutliers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100}
	f := Summarize(xs)
	if f.Min != 1 || f.Max != 100 {
		t.Fatalf("min/max wrong: %+v", f)
	}
	if len(f.Outliers) != 1 || f.Outliers[0] != 100 {
		t.Fatalf("expected 100 as the single outlier, got %v", f.Outliers)
	}
	if !strings.Contains(f.String(), "outliers=1") {
		t.Fatalf("String() missing outlier count: %s", f.String())
	}
}

func TestSummarizeOrderInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		a := Summarize(xs)
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		b := Summarize(rev)
		return a.Min == b.Min && a.Median == b.Median && a.Max == b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", got)
	}
	pts := c.Points(4)
	if len(pts) != 4 || pts[3][1] != 1 {
		t.Fatalf("Points = %v", pts)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64, probes []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		prevX, prevY := math.Inf(-1), 0.0
		for _, p := range probes {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			if p < prevX {
				continue
			}
			y := c.At(p)
			if y < prevY {
				return false
			}
			prevX, prevY = p, y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-9) {
		t.Fatalf("Pearson perfect positive = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-9) {
		t.Fatalf("Pearson perfect negative = %v", got)
	}
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1, 1})) {
		t.Fatal("Pearson with zero variance should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Fatal("Pearson with one pair should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "WA")
	tb.AddRow("ADAPT", 1.234)
	tb.AddRow("SepBIT", 1.5)
	out := tb.String()
	if !strings.Contains(out, "ADAPT") || !strings.Contains(out, "1.234") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestQuantilePercentileAgreement(t *testing.T) {
	rng := sim.NewRNG(11)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	c := NewCDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		v := c.Quantile(q)
		// CDF at the quantile must be >= q and tight within one sample.
		if c.At(v) < q {
			t.Fatalf("At(Quantile(%v)) = %v < %v", q, c.At(v), q)
		}
	}
}
