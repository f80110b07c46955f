// Package harness reproduces every figure of the paper's evaluation
// (§4): it synthesizes the workload suites, drives the trace-driven
// simulator across all six placement policies and both GC victim
// policies, and renders paper-style tables and CDF series. Each FigN
// function regenerates the data behind the corresponding figure.
package harness

import (
	"fmt"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
	"adapt/internal/trace"
	"adapt/internal/workload"
)

// PolicyADAPT is the name of the paper's contribution in results.
const PolicyADAPT = placement.NameADAPT

// PolicyNames returns all six policies in the paper's presentation
// order (five baselines, then ADAPT).
func PolicyNames() []string { return placement.Names() }

// Scale sizes the experiments. The paper's full scale (50 volumes,
// 1 M-block YCSB fills) takes minutes; Small keeps unit tests and
// testing.B iterations fast while preserving every qualitative
// relationship.
type Scale struct {
	// Volumes per production suite (paper: 50).
	Volumes int
	// VolumeBlocks centers the per-volume footprint in 4 KiB blocks.
	VolumeBlocks int64
	// OverwriteFactor is write volume per volume relative to footprint.
	OverwriteFactor float64
	// YCSBBlocks and YCSBWrites size the sensitivity experiments
	// (paper: 1 M blocks filled, 10 M writes).
	YCSBBlocks, YCSBWrites int64
	// Seed drives all synthesis.
	Seed uint64
}

// SmallScale is used by tests and testing.B benchmarks.
func SmallScale() Scale {
	return Scale{
		Volumes:         6,
		VolumeBlocks:    8 << 10,
		OverwriteFactor: 4,
		YCSBBlocks:      16 << 10,
		YCSBWrites:      128 << 10,
		Seed:            1,
	}
}

// FullScale approximates the paper's configuration.
func FullScale() Scale {
	return Scale{
		Volumes:         50,
		VolumeBlocks:    32 << 10,
		OverwriteFactor: 5,
		YCSBBlocks:      1 << 20,
		YCSBWrites:      10 << 20,
		Seed:            1,
	}
}

// StoreConfig is the paper's store (§4.1) for a volume of the given
// footprint, with the geometry lss.Config.GeometryDefaults derives.
func StoreConfig(userBlocks int64, victim lss.VictimPolicy) lss.Config {
	return lss.Config{UserBlocks: userBlocks, Victim: victim}.GeometryDefaults()
}

// BuildPolicy constructs a policy by name, with default options, for
// the given store geometry.
func BuildPolicy(name string, cfg lss.Config) (lss.Policy, error) {
	return placement.Build(name, cfg, adaptcore.Options{})
}

// RunResult summarizes one policy run over one trace.
type RunResult struct {
	Policy string
	Victim lss.VictimPolicy
	Volume string

	WA           float64
	EffectiveWA  float64
	PaddingRatio float64

	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64
	SegmentsReclaimed                                 int64
	PerGroup                                          []lss.GroupMetrics
	Latency                                           lss.LatencyStats
}

// RunTrace replays tr (already dense in [0, cfg.UserBlocks)) through
// the named policy on a store built from cfg and returns the traffic
// summary. It is the one simulator run path: every trace-driven cell of
// every experiment goes through it. deps, if given, is wired into the
// store, and a telemetry set in it is attached to the policy as well.
func RunTrace(policy string, tr *trace.Trace, cfg lss.Config, deps ...lss.Deps) (RunResult, error) {
	pol, err := BuildPolicy(policy, cfg)
	if err != nil {
		return RunResult{}, err
	}
	store := lss.New(cfg, pol, deps...)
	if p, ok := pol.(interface{ SetTelemetry(*telemetry.Set) }); ok && len(deps) > 0 && deps[0].Telemetry != nil {
		p.SetTelemetry(deps[0].Telemetry)
	}
	if err := trace.Replay(store, tr); err != nil {
		return RunResult{}, fmt.Errorf("policy %s: %w", policy, err)
	}
	// The store dies here, so the summary may keep its per-group slice.
	m := store.Metrics()
	return RunResult{
		Policy:            policy,
		Victim:            cfg.Victim,
		Volume:            tr.Name,
		WA:                m.WA(),
		EffectiveWA:       m.EffectiveWA(),
		PaddingRatio:      m.PaddingRatio(),
		UserBlocks:        m.UserBlocks,
		GCBlocks:          m.GCBlocks,
		ShadowBlocks:      m.ShadowBlocks,
		PaddingBlocks:     m.PaddingBlocks,
		SegmentsReclaimed: m.SegmentsReclaimed,
		PerGroup:          m.PerGroup,
		Latency:           m.Latency,
	}, nil
}

// Suite returns the synthesized volume descriptors for a profile at
// the given scale.
func (sc Scale) Suite(p workload.Profile) []workload.Volume {
	return workload.NewSuite(workload.SuiteConfig{
		Profile:         p,
		Volumes:         sc.Volumes,
		ScaleBlocks:     sc.VolumeBlocks,
		OverwriteFactor: sc.OverwriteFactor,
		Seed:            sc.Seed,
	})
}

// mediumGap is Figure 11's medium access density, at which the
// extensions replay YCSB-A.
const mediumGap = 60 * sim.Microsecond

// ycsb synthesizes the sensitivity experiments' YCSB-A trace: a dense
// fill of YCSBBlocks, then YCSBWrites zipfian(theta) updates arriving at
// the given mean gap.
func (sc Scale) ycsb(theta float64, gap sim.Time) *trace.Trace {
	return workload.Generate(workload.YCSBConfig{
		Blocks:  sc.YCSBBlocks,
		Writes:  sc.YCSBWrites,
		Fill:    true,
		Theta:   theta,
		MeanGap: gap,
		Seed:    sc.Seed,
	})
}
