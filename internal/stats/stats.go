// Package stats provides the summary statistics used by the experiment
// harness: percentiles, five-number (boxplot) summaries, empirical
// CDFs, Pearson correlation, and ASCII table rendering in the style of
// the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns NaN for empty input.
// It copies and sorts; callers that already hold sorted data should
// use SortedPercentile.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return SortedPercentile(s, p)
}

// SortedPercentile is Percentile over already-sorted input: no copy,
// no sort, O(1). The caller must have sorted s ascending.
func SortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation (n-1 denominator).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// FiveNum is a boxplot summary.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	Outliers                 []float64 // beyond 1.5×IQR whiskers
}

// Summarize computes the boxplot summary of xs. It sorts a copy once
// and takes every quartile from it via SortedPercentile.
func Summarize(xs []float64) FiveNum {
	if len(xs) == 0 {
		nan := math.NaN()
		return FiveNum{nan, nan, nan, nan, nan, nil}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	f := FiveNum{
		Min:    s[0],
		Q1:     SortedPercentile(s, 25),
		Median: SortedPercentile(s, 50),
		Q3:     SortedPercentile(s, 75),
		Max:    s[len(s)-1],
	}
	iqr := f.Q3 - f.Q1
	lo, hi := f.Q1-1.5*iqr, f.Q3+1.5*iqr
	for _, x := range xs {
		if x < lo || x > hi {
			f.Outliers = append(f.Outliers, x)
		}
	}
	return f
}

// String renders the summary compactly.
func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f outliers=%d",
		f.Min, f.Q1, f.Median, f.Q3, f.Max, len(f.Outliers))
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x) in [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// Count of samples <= x via binary search.
	n := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with At(v) >= q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Points renders the CDF as n evenly spaced (value, fraction) pairs,
// suitable for plotting a figure series.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 1; i <= n; i++ {
		q := float64(i) / float64(n)
		out = append(out, [2]float64{c.Quantile(q), q})
	}
	return out
}

// Pearson returns the Pearson correlation coefficient of paired
// samples, or NaN if fewer than two pairs or zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Table renders aligned ASCII tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
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
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
