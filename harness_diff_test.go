package adapt

import (
	"fmt"
	"testing"

	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/workload"
)

// TestSimulatorMatchesHarness pins that the public API and the
// experiment harness build the same store: every small-scale Figure 8
// cell (three suites × greedy/cost-benefit × six policies × each
// volume) replayed through NewSimulator+Replay must report exactly the
// WA, EffectiveWA and PaddingRatio harness.RunTrace reports on
// harness.StoreConfig. Any second copy of the segment-size, sampling
// or policy-construction rule shows up here as a mismatch.
func TestSimulatorMatchesHarness(t *testing.T) {
	sc := harness.SmallScale()
	for _, profile := range workload.Profiles() {
		for i, vol := range sc.Suite(profile) {
			t.Run(fmt.Sprintf("%s/%d", profile, i), func(t *testing.T) {
				t.Parallel()
				tr := vol.Generate()
				public := fromInternal(tr)
				for _, victim := range []lss.VictimPolicy{lss.Greedy, lss.CostBenefit} {
					for _, policy := range Policies() {
						want, err := harness.RunTrace(policy, tr, harness.StoreConfig(vol.FootprintBlocks, victim))
						if err != nil {
							t.Fatal(err)
						}
						s, err := NewSimulator(SimulatorConfig{
							UserBlocks: vol.FootprintBlocks, Policy: policy, Victim: victim.String(),
						})
						if err != nil {
							t.Fatal(err)
						}
						if err := s.Replay(public); err != nil {
							t.Fatal(err)
						}
						got := s.Metrics()
						if got.WA != want.WA || got.EffectiveWA != want.EffectiveWA || got.PaddingRatio != want.PaddingRatio {
							t.Errorf("%s/%s: public API WA %v eff %v pad %v, harness WA %v eff %v pad %v",
								victim, policy, got.WA, got.EffectiveWA, got.PaddingRatio,
								want.WA, want.EffectiveWA, want.PaddingRatio)
						}
					}
				}
			})
		}
	}
}
