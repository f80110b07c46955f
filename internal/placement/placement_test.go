package placement

import (
	"strings"
	"testing"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/sim"
)

func testParams() Params {
	return Params{UserBlocks: 4096, SegmentBlocks: 32, ChunkBlocks: 4}
}

// testConfig is the store testParams describes.
func testConfig() lss.Config {
	return lss.Config{UserBlocks: 4096, ChunkBlocks: 4, SegmentChunks: 8}
}

func TestBuildByName(t *testing.T) {
	for _, name := range Names() {
		p, err := Build(name, testConfig(), adaptcore.Options{})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
		if p.Groups() < 2 {
			t.Errorf("policy %q has %d groups", name, p.Groups())
		}
	}
	_, err := Build("nonsense", testConfig(), adaptcore.Options{})
	if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), "|")) {
		t.Fatalf("unknown policy: error %v, want one listing every name", err)
	}
}

func TestExpectedGroupCounts(t *testing.T) {
	cases := map[string]int{
		NameSepGC:  2,
		NameDAC:    5,
		NameWARCIP: 6, // 5 user + 1 GC
		NameMiDA:   8,
		NameSepBIT: 6, // 2 user + 4 GC
		NameADAPT:  adaptcore.NumGroups,
	}
	for name, want := range cases {
		p, err := Build(name, testConfig(), adaptcore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Groups(); got != want {
			t.Errorf("%s groups = %d, want %d", name, got, want)
		}
	}
}

func TestSepGCSeparation(t *testing.T) {
	p := NewSepGC(testParams())
	if g := p.PlaceUser(1, 0, 0); g != 0 {
		t.Fatalf("user block in group %d, want 0", g)
	}
	if g := p.PlaceGC(1, 0, 0, 0, 0); g != 1 {
		t.Fatalf("GC block in group %d, want 1", g)
	}
}

func TestDACPromotionDemotion(t *testing.T) {
	p := NewDAC(testParams(), 5)
	// Repeated updates promote to the hottest group and saturate.
	var g lss.GroupID
	for i := 0; i < 10; i++ {
		g = p.PlaceUser(7, 0, 0)
	}
	if g != 4 {
		t.Fatalf("hot block in group %d, want 4", g)
	}
	// GC migrations demote back down and saturate at 0.
	for i := 0; i < 10; i++ {
		g = p.PlaceGC(7, g, 0, 0, 0)
	}
	if g != 0 {
		t.Fatalf("cold block in group %d, want 0", g)
	}
}

func TestMiDAMigrationCounting(t *testing.T) {
	p := NewMiDA(testParams(), 8)
	if g := p.PlaceUser(3, 0, 0); g != 0 {
		t.Fatalf("first write in group %d, want 0", g)
	}
	// Three migrations: the block climbs three groups.
	for i := 1; i <= 3; i++ {
		if g := p.PlaceGC(3, 0, 0, 0, 0); int(g) != i {
			t.Fatalf("migration %d placed in group %d", i, g)
		}
	}
	// A user update lands in the earned group and credits one level.
	if g := p.PlaceUser(3, 0, 0); g != 3 {
		t.Fatalf("update placed in group %d, want 3", g)
	}
	if g := p.PlaceUser(3, 0, 0); g != 2 {
		t.Fatalf("second update placed in group %d, want 2", g)
	}
	// Saturation at the coldest group.
	for i := 0; i < 20; i++ {
		p.PlaceGC(3, 0, 0, 0, 0)
	}
	if g := p.PlaceGC(3, 0, 0, 0, 0); g != 7 {
		t.Fatalf("saturated at group %d, want 7", g)
	}
}

func TestWARCIPClustersByInterval(t *testing.T) {
	p := NewWARCIP(testParams(), 5)
	// Block A rewrites every ~2 clock ticks, block B every ~1000:
	// after training they must land in different clusters.
	clock := sim.WriteClock(0)
	var ga, gb lss.GroupID
	for i := 0; i < 400; i++ {
		ga = p.PlaceUser(1, 0, clock)
		clock += 2
		if i%500 == 499 {
			gb = p.PlaceUser(2, 0, clock)
		}
	}
	for i := 0; i < 20; i++ {
		gb = p.PlaceUser(2, 0, clock)
		clock += 1000
	}
	if ga == gb {
		t.Fatalf("hot and cold pages share cluster %d", ga)
	}
	// GC writes always use the dedicated group.
	if g := p.PlaceGC(1, ga, 0, 0, clock); g != 5 {
		t.Fatalf("GC block in group %d, want 5", g)
	}
}

func TestWARCIPFirstWriteIsColdest(t *testing.T) {
	p := NewWARCIP(testParams(), 5)
	g := p.PlaceUser(9, 0, 0)
	// The first write uses the max-interval assumption: nearest cluster
	// to maxLog must be the highest centroid.
	cs := p.Centroids()
	best := 0
	for i := range cs {
		if cs[i] > cs[best] {
			best = i
		}
	}
	if int(g) != best {
		t.Fatalf("first write in group %d, want coldest cluster %d", g, best)
	}
}

func TestSepBITUserSeparation(t *testing.T) {
	p := NewSepBIT(testParams())
	// First-ever write: cold group.
	if g := p.PlaceUser(1, 0, 100); g != 1 {
		t.Fatalf("first write in group %d, want 1", g)
	}
	// Quick rewrite: inferred short-lived, hot group.
	if g := p.PlaceUser(1, 0, 110); g != 0 {
		t.Fatalf("quick rewrite in group %d, want 0", g)
	}
	// Rewrite after more than the threshold: cold.
	far := sim.WriteClock(110 + int64(p.Threshold()) + 1)
	if g := p.PlaceUser(1, 0, far); g != 1 {
		t.Fatalf("slow rewrite in group %d, want 1", g)
	}
}

func TestSepBITThresholdAdaptsToGC(t *testing.T) {
	p := NewSepBIT(testParams())
	init := p.Threshold()
	// Reclaimed group-0 segments with lifespan 50 drag τ toward 50.
	for i := 0; i < 50; i++ {
		p.OnSegmentReclaimed(0, 0, 40, 50, 0, 32)
	}
	if p.Threshold() >= init || p.Threshold() > 60 {
		t.Fatalf("threshold %v did not converge toward 50 (init %v)", p.Threshold(), init)
	}
	// Non-group-0 reclaims must not move τ.
	before := p.Threshold()
	p.OnSegmentReclaimed(3, 0, 0, 1000000, 0, 32)
	if p.Threshold() != before {
		t.Fatal("group-3 reclaim moved the BIT threshold")
	}
}

func TestSepBITGCAgeClasses(t *testing.T) {
	p := NewSepBIT(testParams())
	// Pin the threshold via one GC sample of lifespan 100.
	p.OnSegmentReclaimed(0, 0, 0, 100, 0, 32)
	if p.Threshold() != 100 {
		t.Fatalf("threshold = %v, want 100", p.Threshold())
	}
	// Blocks from the hot user group always go to group 2.
	if g := p.PlaceGC(1, 0, 0, 0, 500); g != 2 {
		t.Fatalf("hot-origin GC block in group %d, want 2", g)
	}
	// Age-based classes for cold-origin blocks.
	p.PlaceUser(5, 0, 1000) // lastWrite = 1000
	cases := []struct {
		clock sim.WriteClock
		want  lss.GroupID
	}{
		{1050, 3}, // age 50 < τ
		{1300, 4}, // τ <= 300 < 4τ
		{2500, 5}, // 4τ <= 1500
		{9000, 5}, // >= 16τ clamps to the coldest GC group
	}
	for _, c := range cases {
		if g := p.PlaceGC(5, 1, 0, 0, c.clock); g != c.want {
			t.Errorf("PlaceGC at clock %d → group %d, want %d", c.clock, g, c.want)
		}
	}
}

// TestPoliciesDriveStore replays a skewed workload through every
// policy atop the real store and checks basic sanity: data survives,
// invariants hold, WA is finite and ≥ 1.
func TestPoliciesDriveStore(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := lss.Config{
				UserBlocks:    4096,
				ChunkBlocks:   4,
				SegmentChunks: 8,
				OverProvision: 0.25,
			}
			pol, err := Build(name, cfg, adaptcore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := lss.New(cfg, pol)
			rng := sim.NewRNG(42)
			for i := int64(0); i < cfg.UserBlocks; i++ {
				if err := s.WriteBlock(i, 0); err != nil {
					t.Fatal(err)
				}
			}
			now := sim.Time(0)
			for i := 0; i < int(cfg.UserBlocks)*8; i++ {
				now += 10 * sim.Microsecond
				var lba int64
				if rng.Float64() < 0.8 {
					lba = rng.Int63n(cfg.UserBlocks / 5)
				} else {
					lba = rng.Int63n(cfg.UserBlocks)
				}
				if err := s.WriteBlock(lba, now); err != nil {
					t.Fatal(err)
				}
			}
			s.Drain(now + sim.Second)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := s.LiveBlocks(); got != cfg.UserBlocks {
				t.Fatalf("LiveBlocks = %d, want %d", got, cfg.UserBlocks)
			}
			wa := s.Metrics().WA()
			if wa < 1 || wa > 20 {
				t.Fatalf("implausible WA %.3f", wa)
			}
		})
	}
}
