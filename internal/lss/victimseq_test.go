// External test package: the all-policy differential builds its stores
// through internal/harness, which imports this package.
package lss_test

import (
	"testing"

	"adapt/internal/harness"
	"adapt/internal/lss"
)

// TestVictimSequenceLegacyIndexAllPolicies extends the in-package
// victim differential to every placement policy: the incremental victim
// index and the scan-and-sort reference selector must reclaim
// byte-identical victim sequences for the deterministic victim
// policies, including a degraded-mode stretch in the middle third of
// the trace.
func TestVictimSequenceLegacyIndexAllPolicies(t *testing.T) {
	opt := harness.DiffOptions{Blocks: 4 << 10, Writes: 24 << 10, Seed: 9}
	tr := harness.DiffTrace(opt)
	n := len(tr.Records)
	for _, victim := range []lss.VictimPolicy{lss.Greedy, lss.CostBenefit} {
		for _, policy := range harness.PolicyNames() {
			for _, degraded := range []bool{false, true} {
				from, to := 0, 0
				if degraded {
					from, to = n/3, 2*n/3
				}
				cfg := harness.DiffConfig(opt.Blocks, victim)
				idx, err := harness.VictimSequence(policy, cfg, tr, from, to)
				if err != nil {
					t.Fatal(err)
				}
				restore := lss.UseVictimScan()
				legacy, err := harness.VictimSequence(policy, cfg, tr, from, to)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if len(idx) == 0 {
					t.Fatalf("%s/%s: no segments reclaimed; differential is vacuous", policy, victim)
				}
				if len(idx) != len(legacy) {
					t.Fatalf("%s/%s degraded=%v: index reclaimed %d victims, legacy %d",
						policy, victim, degraded, len(idx), len(legacy))
				}
				for i := range idx {
					if idx[i] != legacy[i] {
						t.Fatalf("%s/%s degraded=%v: victim %d differs: index=%d legacy=%d",
							policy, victim, degraded, i, idx[i], legacy[i])
					}
				}
			}
		}
	}
}
