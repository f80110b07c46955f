package harness

import (
	"fmt"
	"strings"

	"adapt/internal/lss"
	"adapt/internal/stats"
	"adapt/internal/workload"
)

// Fig8Row is one bar of Figure 8: a policy's overall WA plus the
// per-volume WA distribution under one suite and victim policy.
type Fig8Row struct {
	Profile   workload.Profile
	Victim    lss.VictimPolicy
	Policy    string
	OverallWA float64 // padding-inclusive, the paper's headline metric
	GCOnlyWA  float64 // (user+GC)/user, isolating GC efficiency
	PerVolume stats.FiveNum
}

// Fig8 renders the Figure 8 data from a computed grid.
func Fig8(g *Grid) []Fig8Row {
	var rows []Fig8Row
	for _, p := range g.Profiles {
		for _, v := range g.Victims {
			for _, pol := range g.Policies {
				rows = append(rows, Fig8Row{
					Profile:   p,
					Victim:    v,
					Policy:    pol,
					OverallWA: g.OverallWA(p, v, pol),
					GCOnlyWA:  g.OverallGCWA(p, v, pol),
					PerVolume: stats.Summarize(g.VolumeWAs(p, v, pol)),
				})
			}
		}
	}
	return rows
}

// Fig8Reductions reports ADAPT's overall-WA reduction versus each
// baseline — the headline percentages of §4.2.
func Fig8Reductions(g *Grid, p workload.Profile, v lss.VictimPolicy) map[string]float64 {
	adapt := g.OverallWA(p, v, PolicyADAPT)
	out := make(map[string]float64)
	for _, pol := range g.Policies {
		if pol == PolicyADAPT {
			continue
		}
		base := g.OverallWA(p, v, pol)
		if base > 0 {
			out[pol] = 100 * (base - adapt) / base
		}
	}
	return out
}

// renderFig8Reductions prints ADAPT's overall-WA reduction against each
// baseline, one line per suite and victim policy.
func renderFig8Reductions(g *Grid) string {
	var b strings.Builder
	for _, p := range g.Profiles {
		for _, v := range g.Victims {
			reds := Fig8Reductions(g, p, v)
			var parts []string
			for _, base := range g.Policies {
				if r, ok := reds[base]; ok {
					parts = append(parts, fmt.Sprintf("%s %.1f%%", base, r))
				}
			}
			fmt.Fprintf(&b, "ADAPT WA reduction (%s, %s): %s\n", p, v, strings.Join(parts, ", "))
		}
	}
	return b.String()
}

// RenderFig8 prints the full Figure 8 table.
func RenderFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8 — GC efficiency: overall WA and per-volume distribution\n")
	tb := stats.NewTable("suite", "victim", "policy", "overallWA", "gcWA", "median", "q1", "q3", "max", "outliers")
	for _, r := range rows {
		tb.AddRow(string(r.Profile), r.Victim.String(), r.Policy, r.OverallWA, r.GCOnlyWA,
			r.PerVolume.Median, r.PerVolume.Q1, r.PerVolume.Q3, r.PerVolume.Max,
			len(r.PerVolume.Outliers))
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig9Row is one series of Figure 9: the CDF of per-volume padding
// traffic ratios for one policy.
type Fig9Row struct {
	Profile workload.Profile
	Victim  lss.VictimPolicy
	Policy  string
	CDF     *stats.CDF
	// FracUnder25 is the fraction of volumes whose padding ratio stays
	// below 25% — the comparison the paper quotes for the Ali suite.
	FracUnder25 float64
}

// Fig9 renders Figure 9's padding CDFs from the grid.
func Fig9(g *Grid) []Fig9Row {
	var rows []Fig9Row
	for _, p := range g.Profiles {
		for _, v := range g.Victims {
			for _, pol := range g.Policies {
				ratios := g.VolumePaddingRatios(p, v, pol)
				cdf := stats.NewCDF(ratios)
				rows = append(rows, Fig9Row{
					Profile:     p,
					Victim:      v,
					Policy:      pol,
					CDF:         cdf,
					FracUnder25: cdf.At(0.25),
				})
			}
		}
	}
	return rows
}

// RenderFig9 prints the Figure 9 summary.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9 — padding traffic ratio CDFs (per volume)\n")
	tb := stats.NewTable("suite", "victim", "policy", "p50 pad%", "p90 pad%", "max pad%", "vol<25%")
	for _, r := range rows {
		tb.AddRow(string(r.Profile), r.Victim.String(), r.Policy,
			100*r.CDF.Quantile(0.5), 100*r.CDF.Quantile(0.9), 100*r.CDF.Quantile(1),
			fmt.Sprintf("%.0f%%", 100*r.FracUnder25))
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig10Point is one volume in Figure 10's scatter: ADAPT's padding
// reduction versus its WA reduction relative to a baseline.
type Fig10Point struct {
	Volume           string
	PaddingReduction float64 // percent
	WAReduction      float64 // percent
}

// Fig10Result is the scatter against one baseline plus the
// correlation coefficient.
type Fig10Result struct {
	Baseline string
	Points   []Fig10Point
	Pearson  float64
}

// Fig10 computes the padding-vs-WA reduction correlation on the Ali
// suite with Greedy selection, comparing ADAPT against the two other
// lifespan-inference baselines (MiDA and SepBIT), as the paper does.
func Fig10(g *Grid) []Fig10Result {
	const profile = workload.ProfileAli
	const victim = lss.Greedy
	adaptRuns := g.Runs[profile][victim][PolicyADAPT]
	var out []Fig10Result
	for _, base := range []string{"mida", "sepbit"} {
		baseRuns, ok := g.Runs[profile][victim][base]
		if !ok {
			continue
		}
		res := Fig10Result{Baseline: base}
		var xs, ys []float64
		for i := range adaptRuns {
			a, b := adaptRuns[i], baseRuns[i]
			if b.PaddingBlocks == 0 || b.WA <= 0 {
				continue
			}
			padRed := 100 * float64(b.PaddingBlocks-a.PaddingBlocks) / float64(b.PaddingBlocks)
			waRed := 100 * (b.EffectiveWA - a.EffectiveWA) / b.EffectiveWA
			res.Points = append(res.Points, Fig10Point{
				Volume: a.Volume, PaddingReduction: padRed, WAReduction: waRed,
			})
			xs = append(xs, padRed)
			ys = append(ys, waRed)
		}
		res.Pearson = stats.Pearson(xs, ys)
		out = append(out, res)
	}
	return out
}

// RenderFig10 prints the correlation summary.
func RenderFig10(results []Fig10Result) string {
	var b strings.Builder
	b.WriteString("Figure 10 — padding reduction vs WA reduction (ADAPT vs baseline, Ali/Greedy)\n")
	tb := stats.NewTable("baseline", "volumes", "pearson r", "mean padRed%", "mean waRed%")
	for _, r := range results {
		var px, py float64
		for _, pt := range r.Points {
			px += pt.PaddingReduction
			py += pt.WAReduction
		}
		n := float64(len(r.Points))
		if n > 0 {
			px /= n
			py /= n
		}
		tb.AddRow(r.Baseline, len(r.Points), r.Pearson, px, py)
	}
	b.WriteString(tb.String())
	return b.String()
}
