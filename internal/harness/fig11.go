package harness

import (
	"fmt"
	"strings"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/stats"
)

// DensityLevel names the traffic intensities of Figure 11 (left).
type DensityLevel struct {
	Name    string
	MeanGap sim.Time
}

// DensityLevels returns the paper's light/medium/heavy intensities:
// light gaps exceed the 100 µs SLA window, heavy gaps are far below.
func DensityLevels() []DensityLevel {
	return []DensityLevel{
		{"light", 300 * sim.Microsecond},
		{"medium", mediumGap},
		// Heavy must be dense enough that even a 6-way group split
		// fills 16-block chunks within the 100 µs window, which is
		// what lets every scheme escape padding (§4.3).
		{"heavy", 500 * sim.Nanosecond},
	}
}

// Fig11Result holds both sweeps.
type Fig11Result struct {
	Density []SweepCell // WA vs access density (YCSB-A, θ=0.99)
	Skew    []SweepCell // WA vs zipfian α (medium density)
}

// Fig11 runs the sensitivity analysis: YCSB-A update-heavy workloads
// with the Greedy victim policy, sweeping access density and zipfian
// skew (§4.3). Each setting's trace is synthesized only when its turn
// comes: at full scale one is 11 M records.
func Fig11(sc Scale, policies []string) (*Fig11Result, error) {
	out := &Fig11Result{}
	cfg := StoreConfig(sc.YCSBBlocks, lss.Greedy)
	add := func(dst *[]SweepCell, name string, theta float64, gap sim.Time) error {
		cells, err := sweep(policies, setting{name, cfg, sc.ycsb(theta, gap)})
		if err != nil {
			return fmt.Errorf("fig11 %w", err)
		}
		*dst = append(*dst, cells...)
		return nil
	}
	for _, lvl := range DensityLevels() {
		if err := add(&out.Density, lvl.Name, 0.99, lvl.MeanGap); err != nil {
			return nil, err
		}
	}
	for _, alpha := range []float64{0, 0.3, 0.6, 0.9, 0.99} {
		if err := add(&out.Skew, fmt.Sprintf("a=%.2f", alpha), alpha, mediumGap); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render prints Figure 11 tables.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11 — sensitivity: WA vs access density (left) and skew (right)\n")
	render := func(title string, cells []SweepCell) {
		fmt.Fprintf(&b, "%s:\n", title)
		tb := stats.NewTable("setting", "policy", "WA", "pad ratio")
		for _, c := range cells {
			tb.AddRow(c.Setting, c.Policy, c.WA, c.PadRat)
		}
		b.WriteString(tb.String())
	}
	render("access density (YCSB-A θ=0.99)", r.Density)
	render("workload skewness (medium density)", r.Skew)
	return b.String()
}
