package harness

import (
	"strings"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/workload"
)

// tinyScale keeps harness tests fast while still cycling GC.
func tinyScale() Scale {
	return Scale{
		Volumes:         3,
		VolumeBlocks:    4 << 10,
		OverwriteFactor: 3,
		YCSBBlocks:      4 << 10,
		YCSBWrites:      24 << 10,
		Seed:            1,
	}
}

func TestPolicyNamesIncludeADAPT(t *testing.T) {
	names := PolicyNames()
	if len(names) != 6 {
		t.Fatalf("%d policies, want 6", len(names))
	}
	if names[len(names)-1] != PolicyADAPT {
		t.Fatalf("last policy %q, want adapt", names[len(names)-1])
	}
}

func TestBuildPolicyAll(t *testing.T) {
	cfg := StoreConfig(8<<10, lss.Greedy)
	for _, name := range PolicyNames() {
		p, err := BuildPolicy(name, cfg)
		if err != nil {
			t.Fatalf("BuildPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports %q", name, p.Name())
		}
	}
	if _, err := BuildPolicy("bogus", cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestStoreConfigScalesSegments(t *testing.T) {
	small := StoreConfig(4<<10, lss.Greedy)
	big := StoreConfig(1<<20, lss.Greedy)
	if small.SegmentChunks >= big.SegmentChunks {
		t.Fatalf("segment scaling wrong: %d vs %d", small.SegmentChunks, big.SegmentChunks)
	}
	if small.ChunkBlocks != 16 || small.BlockSize != 4096 {
		t.Fatal("paper geometry changed")
	}
}

func TestRunTraceProducesSaneResult(t *testing.T) {
	sc := tinyScale()
	vol := sc.Suite(workload.ProfileAli)[0]
	tr := vol.Generate()
	res, err := RunTrace("sepgc", tr, StoreConfig(vol.FootprintBlocks, lss.Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if res.WA < 1 || res.WA > 20 {
		t.Fatalf("implausible WA %f", res.WA)
	}
	if res.PaddingRatio < 0 || res.PaddingRatio >= 1 {
		t.Fatalf("implausible padding ratio %f", res.PaddingRatio)
	}
	if res.UserBlocks == 0 {
		t.Fatal("no user traffic recorded")
	}
}

func TestFig2Shapes(t *testing.T) {
	sc := tinyScale()
	sc.Volumes = 8
	results := Fig2(sc, workload.Profiles())
	if len(results) != 3 {
		t.Fatalf("%d profiles", len(results))
	}
	for _, r := range results {
		if r.RateCDF.Len() != 8 {
			t.Fatalf("%s: rate CDF over %d volumes", r.Profile, r.RateCDF.Len())
		}
		if r.FracWritesLE8KiB < 0.5 {
			t.Errorf("%s: small-write fraction %.2f too low", r.Profile, r.FracWritesLE8KiB)
		}
		if out := r.Render(); !strings.Contains(out, "Figure 2") {
			t.Error("render missing header")
		}
	}
}

func TestFig3ObservationsHold(t *testing.T) {
	sc := tinyScale()
	results, err := Fig3(sc, []string{"sepgc", "mida"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig3Result{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	sep := byName["sepgc"]
	// Observation 2: SepGC padding concentrates in the user group (0).
	if g1 := sep.Groups[1]; g1.PaddingBlocks > sep.Groups[0].PaddingBlocks/10+1 {
		t.Errorf("GC group padding %d not ≪ user group padding %d",
			g1.PaddingBlocks, sep.Groups[0].PaddingBlocks)
	}
	// Observation 3: MiDA spreads user writes across multiple groups.
	if byName["mida"].UserGroupCount() < 2 {
		t.Error("MiDA user writes confined to one group")
	}
	if out := sep.Render(); !strings.Contains(out, "sepgc") {
		t.Error("render missing policy name")
	}
}

func TestGridAndFig8910(t *testing.T) {
	sc := tinyScale()
	grid, err := RunGrid(sc,
		[]workload.Profile{workload.ProfileAli},
		[]lss.VictimPolicy{lss.Greedy},
		[]string{"sepgc", "mida", "sepbit", PolicyADAPT})
	if err != nil {
		t.Fatal(err)
	}
	rows := Fig8(grid)
	if len(rows) != 4 {
		t.Fatalf("%d fig8 rows", len(rows))
	}
	for _, r := range rows {
		if r.OverallWA < 1 {
			t.Fatalf("%s WA %f < 1", r.Policy, r.OverallWA)
		}
	}
	if out := RenderFig8(rows); !strings.Contains(out, "adapt") {
		t.Error("fig8 render missing adapt")
	}

	f9 := Fig9(grid)
	for _, r := range f9 {
		if r.CDF.Len() != sc.Volumes {
			t.Fatalf("fig9 CDF has %d points", r.CDF.Len())
		}
	}
	if out := RenderFig9(f9); !strings.Contains(out, "Figure 9") {
		t.Error("fig9 render broken")
	}

	f10 := Fig10(grid)
	if len(f10) != 2 {
		t.Fatalf("%d fig10 baselines", len(f10))
	}
	for _, r := range f10 {
		if len(r.Points) == 0 {
			t.Fatalf("fig10 %s has no points", r.Baseline)
		}
	}
	if out := RenderFig10(f10); !strings.Contains(out, "pearson") {
		t.Error("fig10 render broken")
	}

	// The headline claim at tiny scale: ADAPT's overall WA must not be
	// the worst, and reductions versus at least one baseline positive.
	reds := Fig8Reductions(grid, workload.ProfileAli, lss.Greedy)
	anyPositive := false
	for _, v := range reds {
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Errorf("ADAPT reduced WA against no baseline: %v", reds)
	}
}

func TestFig11RunsAllCells(t *testing.T) {
	sc := tinyScale()
	res, err := Fig11(sc, []string{"sepgc", PolicyADAPT})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Density) != 3*2 {
		t.Fatalf("%d density cells", len(res.Density))
	}
	if len(res.Skew) != 5*2 {
		t.Fatalf("%d skew cells", len(res.Skew))
	}
	if out := res.Render(); !strings.Contains(out, "sensitivity") {
		t.Error("fig11 render broken")
	}
	// Density monotonicity for a given policy: heavy traffic must not
	// produce more padding than light traffic.
	byKey := map[string]SweepCell{}
	for _, c := range res.Density {
		byKey[c.Policy+"/"+c.Setting] = c
	}
	for _, pol := range []string{"sepgc", PolicyADAPT} {
		light, heavy := byKey[pol+"/light"], byKey[pol+"/heavy"]
		if heavy.PadRat > light.PadRat+1e-9 {
			t.Errorf("%s: heavy pad ratio %.3f exceeds light %.3f",
				pol, heavy.PadRat, light.PadRat)
		}
	}
}

func TestFig12SmallRun(t *testing.T) {
	sc := tinyScale()
	opts := Fig12Options{
		ClientCounts:  []int{1, 2},
		Blocks:        sc.YCSBBlocks / 4,
		Ops:           8 << 10,
		ServiceTime:   2 * time.Microsecond,
		MemoryBlocks:  []int64{4 << 10, 16 << 10},
		MemoryWarmOps: 8 << 10,
	}
	res, err := Fig12(sc, []string{"sepbit", PolicyADAPT}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Throughput) != 4 {
		t.Fatalf("%d throughput rows", len(res.Throughput))
	}
	for _, r := range res.Throughput {
		if r.OpsPerSec <= 0 {
			t.Fatalf("%s/%d: zero throughput", r.Policy, r.Clients)
		}
	}
	if len(res.Memory) != 2 {
		t.Fatalf("%d memory rows", len(res.Memory))
	}
	for _, r := range res.Memory {
		if r.ADAPTBytes <= r.SepBITBytes {
			t.Fatalf("ADAPT memory %d not above SepBIT %d (sampler+ghosts missing?)",
				r.ADAPTBytes, r.SepBITBytes)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 12a") {
		t.Error("fig12 render broken")
	}
}
