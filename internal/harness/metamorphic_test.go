package harness

import (
	"testing"

	"adapt/internal/lss"
	"adapt/internal/trace"
)

func diffTestOptions(t *testing.T) DiffOptions {
	opt := DiffOptions{Seed: 1}
	if testing.Short() {
		opt.Blocks = 4 << 10
		opt.Writes = 16 << 10
	}
	return opt.withDefaults()
}

// TestDifferentialAllPolicies is the headline differential: all six
// placement policies replayed against the reference model (byte mirror
// included) on a shared 100k+ operation zipfian trace, zero mismatches
// tolerated.
func TestDifferentialAllPolicies(t *testing.T) {
	opt := diffTestOptions(t)
	if !testing.Short() && opt.Blocks+opt.Writes < 100_000 {
		t.Fatalf("trace too small for the acceptance run: %d ops", opt.Blocks+opt.Writes)
	}
	results, err := DiffPolicies(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(PolicyNames()) {
		t.Fatalf("ran %d policies, want %d", len(results), len(PolicyNames()))
	}
	for _, res := range results {
		if res.GCWA <= 1 {
			t.Errorf("%s: GC never ran (WA %.3f); the differential exercised nothing", res.Policy, res.GCWA)
		}
		if res.CheapChecks == 0 || res.FullChecks == 0 {
			t.Errorf("%s: oracle checks did not run: cheap=%d full=%d", res.Policy, res.CheapChecks, res.FullChecks)
		}
	}
}

// TestDifferentialMidTraceFault repeats the differential for ADAPT with
// a device failure a third of the way in and an incremental rebuild
// racing the remaining trace: parity, degraded reconstruction, and
// post-rebuild read-back all must stay clean.
func TestDifferentialMidTraceFault(t *testing.T) {
	opt := diffTestOptions(t)
	tr := DiffTrace(opt)
	opt.FailAtOp = len(tr.Records) / 3
	opt.FailColumn = 2
	res, err := DiffPolicy(PolicyADAPT, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuiltChunks == 0 {
		t.Fatal("rebuild reconstructed nothing; the fault path was not exercised")
	}
}

// TestReorderedTraceSameLiveSet checks the commuting-writes metamorphic
// relation: exchanging adjacent writes to disjoint block ranges must
// leave every policy's final live set and accepted write count
// unchanged.
func TestReorderedTraceSameLiveSet(t *testing.T) {
	opt := DiffOptions{Blocks: 4 << 10, Writes: 16 << 10, Seed: 3}.withDefaults()
	base := DiffTrace(opt)
	variant := ReorderDisjointWrites(base, 32, 17, 4096)
	changed := 0
	for i := range base.Records {
		if base.Records[i].Offset != variant.Records[i].Offset {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("reordering changed nothing; the relation is vacuous")
	}
	for _, policy := range PolicyNames() {
		run := func(tr *trace.Trace) *lss.Store {
			t.Helper()
			cfg := DiffConfig(opt.Blocks, lss.Greedy)
			pol, err := BuildPolicy(policy, cfg)
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			s := lss.New(cfg, pol)
			if err := trace.Replay(s, tr); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			return s
		}
		a, b := run(base), run(variant)
		if a.Metrics().UserBlocks != b.Metrics().UserBlocks {
			t.Fatalf("%s: reordered trace accepted %d user blocks, original %d",
				policy, b.Metrics().UserBlocks, a.Metrics().UserBlocks)
		}
		la, lb := LiveSet(a), LiveSet(b)
		if len(la) != len(lb) {
			t.Fatalf("%s: live set size %d vs %d after reorder", policy, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s: live sets diverge at %d: %d vs %d", policy, i, la[i], lb[i])
			}
		}
	}
}

// TestSeedShiftWATolerance checks the seed-perturbation relation: the
// same workload shape under a different random seed must land within a
// loose GC-WA tolerance — placement quality is a property of the
// distribution, not the sample.
func TestSeedShiftWATolerance(t *testing.T) {
	opt := DiffOptions{Blocks: 4 << 10, Writes: 32 << 10, Seed: 5}.withDefaults()
	for _, policy := range PolicyNames() {
		was := make([]float64, 0, 2)
		for _, seed := range []uint64{5, 6} {
			o := opt
			o.Seed = seed
			cfg := DiffConfig(o.Blocks, lss.Greedy)
			pol, err := BuildPolicy(policy, cfg)
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			s := lss.New(cfg, pol)
			if err := trace.Replay(s, DiffTrace(o)); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			was = append(was, s.Metrics().WA())
		}
		ratio := was[0] / was[1]
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("%s: GC-WA %.3f vs %.3f across seeds (ratio %.2f) exceeds tolerance",
				policy, was[0], was[1], ratio)
		}
	}
}
