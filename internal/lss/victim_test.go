package lss

import (
	"testing"

	"adapt/internal/sim"
)

func runVictim(t *testing.T, v VictimPolicy) *Metrics {
	t.Helper()
	cfg := smallConfig()
	cfg.Victim = v
	s := New(cfg, twoGroup{})
	rng := sim.NewRNG(8)
	for i := int64(0); i < cfg.UserBlocks; i++ {
		if err := s.WriteBlock(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(cfg.UserBlocks)*6; i++ {
		var lba int64
		if rng.Float64() < 0.9 {
			lba = rng.Int63n(cfg.UserBlocks / 10)
		} else {
			lba = rng.Int63n(cfg.UserBlocks)
		}
		if err := s.WriteBlock(lba, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveBlocks(); got != cfg.UserBlocks {
		t.Fatalf("%s lost data: %d live", v, got)
	}
	return s.Metrics()
}

func TestAllVictimPoliciesReclaim(t *testing.T) {
	for _, v := range []VictimPolicy{Greedy, CostBenefit, DChoices, WindowedGreedy, RandomGreedy} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			m := runVictim(t, v)
			if m.SegmentsReclaimed == 0 {
				t.Fatalf("%s never reclaimed", v)
			}
			if m.WA() < 1 || m.WA() > 20 {
				t.Fatalf("%s implausible WA %f", v, m.WA())
			}
		})
	}
}

// TestGreedyBeatsRandom: on a skewed workload, informed selection must
// outperform uniform random selection.
func TestGreedyBeatsRandom(t *testing.T) {
	greedy := runVictim(t, Greedy)
	random := runVictim(t, RandomGreedy)
	if greedy.WA() >= random.WA() {
		t.Fatalf("greedy WA %.3f not better than random %.3f", greedy.WA(), random.WA())
	}
}

// TestDChoicesApproachesGreedy: sampling d segments should land
// between random and exact greedy.
func TestDChoicesApproachesGreedy(t *testing.T) {
	greedy := runVictim(t, Greedy)
	dchoice := runVictim(t, DChoices)
	random := runVictim(t, RandomGreedy)
	if dchoice.WA() > random.WA()*1.05 {
		t.Fatalf("d-choices WA %.3f worse than random %.3f", dchoice.WA(), random.WA())
	}
	if dchoice.WA() < greedy.WA()*0.8 {
		t.Fatalf("d-choices WA %.3f implausibly beats exact greedy %.3f", dchoice.WA(), greedy.WA())
	}
}

func TestVictimString(t *testing.T) {
	cases := map[VictimPolicy]string{
		Greedy:          "greedy",
		CostBenefit:     "cost-benefit",
		DChoices:        "d-choices",
		WindowedGreedy:  "windowed-greedy",
		RandomGreedy:    "random-greedy",
		VictimPolicy(9): "victim(9)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
		if got, ok := ParseVictim(want); ok != (v != VictimPolicy(9)) || ok && got != v {
			t.Errorf("ParseVictim(%q) = %v, %v", want, got, ok)
		}
	}
	if _, ok := ParseVictim(""); ok {
		t.Error("ParseVictim accepted the empty name")
	}
}

// TestWindowedGreedyWindowConfig drives windowed greedy over its
// derived window, the oldest eighth of the segments, through sustained
// random overwrites: it must keep reclaiming.
func TestWindowedGreedyWindowConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Victim = WindowedGreedy
	s := New(cfg, twoGroup{})
	rng := sim.NewRNG(3)
	for i := int64(0); i < cfg.UserBlocks; i++ {
		s.WriteBlock(i, 0)
	}
	for i := 0; i < int(cfg.UserBlocks)*4; i++ {
		s.WriteBlock(rng.Int63n(cfg.UserBlocks), 0)
	}
	if s.Metrics().SegmentsReclaimed == 0 {
		t.Fatal("windowed greedy never reclaimed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkSinkReceivesEveryFlush verifies the sink callback fires
// exactly once per chunk flush with consistent geometry.
func TestChunkSinkReceivesEveryFlush(t *testing.T) {
	s := New(smallConfig(), twoGroup{})
	cfg := s.Config() // effective (defaulted) geometry
	var flushes int64
	var payload, pad int64
	s.Reconfigure(func(r *Runtime) {
		r.Sink = func(w ChunkWrite) {
			flushes++
			payload += w.PayloadBytes
			pad += w.PadBytes
			if w.PayloadBytes+w.PadBytes != cfg.ChunkBytes() {
				t.Fatalf("sink chunk of %d+%d bytes", w.PayloadBytes, w.PadBytes)
			}
			if w.Chunk < 0 || w.Chunk >= cfg.SegmentChunks {
				t.Fatalf("sink chunk index %d out of range", w.Chunk)
			}
			if w.Segment < 0 || w.Segment >= s.TotalSegments() {
				t.Fatalf("sink segment %d out of range", w.Segment)
			}
		}
	})
	rng := sim.NewRNG(5)
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		now += sim.Time(rng.Int63n(200)) * sim.Microsecond
		if err := s.WriteBlock(rng.Int63n(cfg.UserBlocks), now); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain(now + sim.Second)
	m := s.Metrics()
	var wantFlushes int64
	for _, g := range m.PerGroup {
		wantFlushes += g.ChunkFlushes
	}
	if flushes != wantFlushes {
		t.Fatalf("sink saw %d flushes, metrics say %d", flushes, wantFlushes)
	}
	if payload+pad != flushes*cfg.ChunkBytes() {
		t.Fatal("sink byte accounting inconsistent")
	}
}
