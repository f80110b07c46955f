package adapt

import (
	"testing"
	"time"
)

func TestGCSchedConfigValidation(t *testing.T) {
	base := SimulatorConfig{UserBlocks: 4096, Policy: PolicySepGC}

	bad := base
	bad.GCSched = GCSchedConfig{SliceUnits: 1} // knob without Background
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("GCSched knobs without Background accepted")
	}
	bad.GCSched = GCSchedConfig{Background: true, SliceUnits: -3}
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("negative slice budget accepted")
	}

	good := base
	good.GCSched = GCSchedConfig{Background: true, SliceUnits: 16}
	if _, err := NewSimulator(good); err != nil {
		t.Fatalf("valid background config rejected: %v", err)
	}
}

// TestSimulatorBackgroundGCParanoid replays a GC-heavy workload with
// background-paced GC under the full reference-model oracle: per-op
// slices must preserve every correctness property the synchronous
// path guarantees.
func TestSimulatorBackgroundGCParanoid(t *testing.T) {
	s, err := NewSimulator(SimulatorConfig{
		UserBlocks: 4 << 10,
		Policy:     PolicySepGC,
		Paranoid:   true,
		GCSched:    GCSchedConfig{Background: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateYCSB(YCSBConfig{
		Blocks: 4 << 10, Writes: 24 << 10, Fill: true,
		Theta: 0.99, MeanGap: 50 * time.Microsecond, Seed: 3,
	})
	if err := s.Replay(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.GCCycles == 0 || m.SegmentsReclaimed == 0 {
		t.Fatalf("background GC never ran: %+v", m)
	}
	if m.WA < 1 || m.WA > 20 {
		t.Fatalf("implausible WA %f", m.WA)
	}
}

// TestPublicEngineBackgroundGC exercises the public Engine surface: a
// NewEngine with GCSched.Background, stepped through GCShards, must
// account paced slices and pass the close-time checks.
func TestPublicEngineBackgroundGC(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Simulator: SimulatorConfig{
			UserBlocks: 4096,
			Policy:     PolicySepGC,
			GCSched:    GCSchedConfig{Background: true},
		},
		Fill:   true,
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := eng.GCShards()
	if len(shards) != 1 {
		t.Fatalf("public engine exposes %d GC shards, want its one shard", len(shards))
	}
	for i := 0; i < 8192; i++ {
		if _, err := eng.WriteTimed(int64(i%4096), 1); err != nil {
			t.Fatal(err)
		}
		for _, gs := range shards {
			gs.GCStep(16)
		}
	}
	st := eng.Stats()
	if st.GCSlices == 0 {
		t.Fatalf("no paced slices accounted: %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close (oracle full check): %v", err)
	}
}

func TestPublicEngineValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := NewEngine(EngineConfig{
		Simulator: SimulatorConfig{UserBlocks: 1024, Policy: "bogus"},
	}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestRunPrototypeBackgroundGC runs the concurrent prototype with
// paced GC end to end through the public configuration.
func TestRunPrototypeBackgroundGC(t *testing.T) {
	res, err := RunPrototype(PrototypeConfig{
		Simulator: SimulatorConfig{
			UserBlocks: 8 << 10,
			Policy:     PolicySepGC,
			GCSched:    GCSchedConfig{Background: true, SliceUnits: 16},
		},
		Clients:     4,
		Ops:         32 << 10,
		Theta:       0.99,
		Fill:        true,
		ServiceTime: time.Microsecond,
		QueueDepth:  8,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 {
		t.Fatal("no throughput")
	}
	if res.WA < 1 || res.WA > 20 {
		t.Fatalf("implausible WA %f", res.WA)
	}
}
