package lss

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"adapt/internal/sim"
)

// zipfLike draws a zipfian-skewed LBA in [0, n) by inverse-CDF of a
// power law, scrambled over the key space. (internal/workload has the
// exact Gray et al. generator, but importing it here would be an
// import cycle — workload's trace support depends on lss.)
func zipfLike(rng *sim.RNG, n int64) int64 {
	v := int64(float64(n) * math.Pow(rng.Float64(), 4))
	return (v * 2654435761) % n
}

// runDifferential replays a fixed skewed overwrite trace (with
// interleaved trims) and records the reclaimed-victim id sequence.
func runDifferential(t testing.TB, v VictimPolicy, legacy bool, seed uint64) ([]int, *Metrics) {
	cfg := smallConfig()
	cfg.Victim = v
	if legacy {
		defer UseVictimScan()()
	}
	s := New(cfg, twoGroup{})
	var seq []int
	s.onReclaim = func(segID int) { seq = append(seq, segID) }
	rng := sim.NewRNG(seed)
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
		if i%97 == 0 {
			if err := s.Trim(rng.Int63n(cfg.UserBlocks-8), 8, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return seq, s.Metrics()
}

// TestVictimSequencesIdentical is the differential test for the
// deterministic policies: the incremental index and the reference scan
// must reclaim byte-identical victim sequences on an identical trace.
// (DChoices draws random samples, but both paths consume the same rng
// stream, so its sequence is deterministic too.)
func TestVictimSequencesIdentical(t *testing.T) {
	for _, v := range []VictimPolicy{Greedy, CostBenefit, WindowedGreedy, DChoices} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			idx, mIdx := runDifferential(t, v, false, 8)
			scan, mScan := runDifferential(t, v, true, 8)
			if len(idx) == 0 {
				t.Fatal("trace never triggered GC")
			}
			if len(idx) != len(scan) {
				t.Fatalf("index reclaimed %d victims, scan %d", len(idx), len(scan))
			}
			for i := range idx {
				if idx[i] != scan[i] {
					t.Fatalf("victim %d differs: index chose segment %d, scan %d", i, idx[i], scan[i])
				}
			}
			if mIdx.GCBlocks != mScan.GCBlocks || mIdx.SegmentsReclaimed != mScan.SegmentsReclaimed {
				t.Fatalf("migration totals diverged: index (%d blocks, %d segs), scan (%d, %d)",
					mIdx.GCBlocks, mIdx.SegmentsReclaimed, mScan.GCBlocks, mScan.SegmentsReclaimed)
			}
		})
	}
}

// TestRandomGreedyDistributionUnchanged: RandomGreedy's scan fallback
// and the index's Fisher-Yates fallback consume the rng differently,
// so only the WA distribution — not the byte sequence — is promised.
func TestRandomGreedyDistributionUnchanged(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		_, mIdx := runDifferential(t, RandomGreedy, false, seed)
		_, mScan := runDifferential(t, RandomGreedy, true, seed)
		ratio := mIdx.WA() / mScan.WA()
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("seed %d: index WA %.3f vs scan WA %.3f (ratio %.3f)", seed, mIdx.WA(), mScan.WA(), ratio)
		}
	}
}

// TestTrimGCStress interleaves trims with zipfian overwrites and
// cross-checks every invariant — including the victim-index recount —
// after every GC cycle.
func TestTrimGCStress(t *testing.T) {
	for _, v := range []VictimPolicy{Greedy, CostBenefit, WindowedGreedy} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Victim = v
			s := New(cfg, twoGroup{})
			rng := sim.NewRNG(0xbeef)
			for i := int64(0); i < cfg.UserBlocks; i++ {
				if err := s.WriteBlock(i, 0); err != nil {
					t.Fatal(err)
				}
			}
			cycles := s.Metrics().GCCycles
			checks := 0
			for i := 0; i < int(cfg.UserBlocks)*8; i++ {
				switch {
				case i%11 == 0:
					n := 1 + rng.Intn(16)
					lba := rng.Int63n(cfg.UserBlocks - int64(n))
					if err := s.Trim(lba, n, 0); err != nil {
						t.Fatal(err)
					}
				default:
					if err := s.WriteBlock(zipfLike(rng, cfg.UserBlocks), 0); err != nil {
						t.Fatal(err)
					}
				}
				if c := s.Metrics().GCCycles; c != cycles {
					cycles = c
					checks++
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("after GC cycle %d: %v", c, err)
					}
				}
			}
			if checks == 0 {
				t.Fatal("stress trace never triggered GC")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVictimIndexRebuildAfterRecovery: Recover bypasses the index
// hooks and rebuilds wholesale; the rebuilt index must satisfy the
// cross-check and keep GC running.
func TestVictimIndexRebuildAfterRecovery(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	rng := sim.NewRNG(7)
	for i := int64(0); i < cfg.UserBlocks; i++ {
		if err := s.WriteBlock(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(cfg.UserBlocks)*3; i++ {
		if err := s.WriteBlock(rng.Int63n(cfg.UserBlocks), 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(&buf, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("recovered store: %v", err)
	}
	before := r.Metrics().SegmentsReclaimed
	for i := 0; i < int(cfg.UserBlocks)*3; i++ {
		if err := r.WriteBlock(rng.Int63n(cfg.UserBlocks), 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.Metrics().SegmentsReclaimed == before {
		t.Fatal("recovered store never ran GC")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("recovered store after GC: %v", err)
	}
}

// benchVictimStore builds a store with nsegs total segments, nearly
// all sealed with synthetic garbage counts, ready for selectVictims
// microbenchmarks (selection reads segment state and the index only).
func benchVictimStore(nsegs int, v VictimPolicy) *Store {
	cfg := smallConfig()
	cfg.Victim = v
	// Invert totalSegments so the physical segment count lands near
	// nsegs: physBlocks = UserBlocks * 1.25, 32-block segments.
	cfg.UserBlocks = int64(nsegs-12) * 32 * 4 / 5
	s := New(cfg, twoGroup{})
	rng := sim.NewRNG(42)
	keep := 8 // leave a few segments free
	for i, seg := range s.segments[:len(s.segments)-keep] {
		seg.state = segSealed
		seg.written = s.segBlocks
		seg.valid = int(rng.Int63n(int64(s.segBlocks + 1)))
		seg.born = sim.WriteClock(i)
		seg.sealedW = sim.WriteClock(i + 1)
	}
	s.free = s.free[:0]
	for i := len(s.segments) - keep; i < len(s.segments); i++ {
		s.free = append(s.free, i)
	}
	s.w = sim.WriteClock(len(s.segments) + 16)
	s.rebuildVictimIndex()
	return s
}

// BenchmarkGCVictimSelection sweeps the segment count and compares the
// incremental index against the reference full scan: per-selection cost
// must stay flat for the index while the scan grows superlinearly.
func BenchmarkGCVictimSelection(b *testing.B) {
	for _, nsegs := range []int{1024, 4096, 16384, 65536} {
		for _, path := range []struct {
			name     string
			selector func(*Store, int) []*segment
		}{{"index", (*Store).selectVictimsIndexed}, {"scan", (*Store).selectVictimsScan}} {
			for _, v := range []VictimPolicy{Greedy, CostBenefit} {
				b.Run(fmt.Sprintf("policy=%s/segs=%d/%s", v, nsegs, path.name), func(b *testing.B) {
					s := benchVictimStore(nsegs, v)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if victims := path.selector(s, 4); len(victims) == 0 {
							b.Fatal("no victims selected")
						}
					}
				})
			}
		}
	}
}
