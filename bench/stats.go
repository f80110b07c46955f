package main

import (
	"sort"

	"adapt/internal/stats"
)

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks; NaN for empty input.
func quantile(sorted []float64, q float64) float64 { return stats.SortedPercentile(sorted, 100*q) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func mean(xs []float64) float64 { return stats.Mean(xs) }

func toFloats(xs []int64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) * scale
	}
	return out
}

// windowRates splits [0, span) into k equal windows and returns each
// window's completions per second. Completions at or after span (ops
// that were in flight when the deadline passed) belong to no window.
func windowRates(ends []int64, span int64, k int) []float64 {
	counts := make([]float64, k)
	for _, e := range ends {
		if e >= 0 && e < span {
			counts[int(e*int64(k)/span)]++
		}
	}
	w := float64(span) / float64(k) / 1e9
	for i := range counts {
		counts[i] /= w
	}
	return counts
}

// tailSamples is how many samples must lie beyond a reported percentile
// for it to mean anything.
const tailSamples = 10

// windowed cuts the phase into equal windows — at most maxWindows, and
// no more than still leave tailSamples samples beyond the q-quantile in
// an average window — and returns stat of each window's sorted
// latencies. Reporting the median of these, not one figure over the
// whole phase, means a GC stall or a scheduler hiccup moves one window,
// not the metric. With too few samples for two windows it is one window.
func windowed(c classLat, span int64, q float64, maxWindows int, stat func(sorted []float64) float64) []float64 {
	k := int(float64(len(c.lat)) * (1 - q) / tailSamples)
	k = max(1, min(k, maxWindows))
	buckets := make([][]float64, k)
	for i, e := range c.end {
		if e >= 0 && e < span {
			w := int(e * int64(k) / span)
			buckets[w] = append(buckets[w], float64(c.lat[i]))
		}
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			per = append(per, stat(b))
		}
	}
	return per
}

// tailRatio is p99 ÷ p50 of one window. Whatever slows the host slows
// both alike, so the ratio says how heavy the tail is without saying
// how fast the machine was.
func tailRatio(sorted []float64) float64 { return quantile(sorted, 0.99) / quantile(sorted, 0.5) }
