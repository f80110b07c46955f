package harness

import (
	"fmt"
	"strings"

	"adapt/internal/lss"
	"adapt/internal/stats"
	"adapt/internal/workload"
)

// Fig3Group is the traffic breakdown of one group under one policy.
type Fig3Group struct {
	Group         int
	UserBlocks    int64
	GCBlocks      int64
	ShadowBlocks  int64
	PaddingBlocks int64
	Sealed        int64 // group size proxy: segments sealed
}

// Total returns the group's total block traffic.
func (g Fig3Group) Total() int64 {
	return g.UserBlocks + g.GCBlocks + g.ShadowBlocks + g.PaddingBlocks
}

// Fig3Result is Figure 3 for one policy: per-group write-traffic
// distribution (a) and group sizes (b), aggregated over the suite.
type Fig3Result struct {
	Policy string
	Groups []Fig3Group
}

// Fig3 replays the Alibaba-profile suite (the paper's motivation
// analysis) with the Greedy victim policy and reports per-group
// traffic splits and sizes for each placement policy.
func Fig3(sc Scale, policies []string) ([]Fig3Result, error) {
	g, err := RunGrid(sc, []workload.Profile{workload.ProfileAli}, []lss.VictimPolicy{lss.Greedy}, policies)
	if err != nil {
		return nil, err
	}
	out := make([]Fig3Result, 0, len(policies))
	for _, pol := range policies {
		var groups []Fig3Group
		for _, res := range g.Runs[workload.ProfileAli][lss.Greedy][pol] {
			if groups == nil {
				groups = make([]Fig3Group, len(res.PerGroup))
				for i := range groups {
					groups[i].Group = i
				}
			}
			for i, gm := range res.PerGroup {
				groups[i].UserBlocks += gm.UserBlocks
				groups[i].GCBlocks += gm.GCBlocks
				groups[i].ShadowBlocks += gm.ShadowBlocks
				groups[i].PaddingBlocks += gm.PaddingBlocks
				groups[i].Sealed += gm.Sealed
			}
		}
		out = append(out, Fig3Result{Policy: pol, Groups: groups})
	}
	return out, nil
}

// PaddingShareOfTotal returns padding traffic as a fraction of the
// policy's total write volume (the estimate used in Observation 3).
func (r Fig3Result) PaddingShareOfTotal() float64 {
	var pad, total int64
	for _, g := range r.Groups {
		pad += g.PaddingBlocks
		total += g.Total()
	}
	if total == 0 {
		return 0
	}
	return float64(pad) / float64(total)
}

// UserGroupCount returns how many groups received user writes — the
// paper's Observation 3 links this to padding overhead.
func (r Fig3Result) UserGroupCount() int {
	n := 0
	for _, g := range r.Groups {
		if g.UserBlocks > 0 {
			n++
		}
	}
	return n
}

// GCGroupCapacityShare returns the fraction of sealed segments that
// belong to groups dominated by GC traffic (Observation 4).
func (r Fig3Result) GCGroupCapacityShare() float64 {
	var gcSealed, total int64
	for _, g := range r.Groups {
		total += g.Sealed
		if g.GCBlocks > g.UserBlocks {
			gcSealed += g.Sealed
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gcSealed) / float64(total)
}

// Render prints Figure 3 style tables.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — %s: per-group traffic and sizes (Ali profile, Greedy)\n", r.Policy)
	tb := stats.NewTable("group", "user%", "gc%", "shadow%", "padding%", "blocks", "segments")
	for _, g := range r.Groups {
		tot := g.Total()
		pct := func(x int64) float64 {
			if tot == 0 {
				return 0
			}
			return 100 * float64(x) / float64(tot)
		}
		tb.AddRow(g.Group, pct(g.UserBlocks), pct(g.GCBlocks), pct(g.ShadowBlocks),
			pct(g.PaddingBlocks), tot, g.Sealed)
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "padding share of total traffic: %.1f%%  user groups: %d  GC capacity share: %.1f%%\n",
		100*r.PaddingShareOfTotal(), r.UserGroupCount(), 100*r.GCGroupCapacityShare())
	return b.String()
}
