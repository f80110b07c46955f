package checker_test

import (
	"bytes"
	"errors"
	"testing"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
	"adapt/internal/trace"
	"adapt/internal/workload"
)

// smallCfg keeps the mirror's memory footprint trivial: 32-byte blocks
// mean the whole physical space is a few hundred KiB even after heavy
// GC churn.
func smallCfg() lss.Config {
	return lss.Config{
		BlockSize:     32,
		ChunkBlocks:   4,
		SegmentChunks: 8,
		UserBlocks:    4096,
		OverProvision: 0.25,
	}
}

func sepGC(cfg lss.Config) lss.Policy {
	return placement.NewSepGC(placement.Params{UserBlocks: cfg.UserBlocks})
}

func newOracle(t *testing.T, cfg lss.Config, opts checker.Options) *checker.Oracle {
	t.Helper()
	o, err := checker.New(lss.New(cfg, sepGC(cfg)), opts)
	if err != nil {
		t.Fatalf("checker.New: %v", err)
	}
	return o
}

func zipfTrace(cfg lss.Config, writes int64, seed uint64) *trace.Trace {
	return workload.Generate(workload.YCSBConfig{
		Blocks:    cfg.UserBlocks,
		Writes:    writes,
		Fill:      true,
		Theta:     0.99,
		BlockSize: int64(cfg.BlockSize),
		Seed:      seed,
	})
}

func TestOracleCleanReplay(t *testing.T) {
	cfg := smallCfg()
	o := newOracle(t, cfg, checker.Options{Mirror: true, FullEvery: 4096})
	if err := o.ReplayTrace(zipfTrace(cfg, 16384, 1)); err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	if o.Store().Metrics().GCBlocks == 0 {
		t.Fatal("trace too light: GC never ran, oracle exercised nothing interesting")
	}
	cheap, full := o.Checks()
	if cheap == 0 || full < 2 {
		t.Fatalf("checks did not run: cheap=%d full=%d", cheap, full)
	}
}

func TestOracleTrims(t *testing.T) {
	cfg := smallCfg()
	o := newOracle(t, cfg, checker.Options{Mirror: true})
	now := sim.Time(0)
	for round := 0; round < 8; round++ {
		for lba := int64(0); lba < cfg.UserBlocks; lba += 2 {
			if err := o.Write(lba, 1, now); err != nil {
				t.Fatalf("write: %v", err)
			}
			now += sim.Microsecond
		}
		if err := o.Trim(0, int(cfg.UserBlocks/4), now); err != nil {
			t.Fatalf("trim: %v", err)
		}
	}
	if err := o.Drain(now + sim.Second); err != nil {
		t.Fatalf("drain check: %v", err)
	}
}

// TestOracleDetectsBypass proves the oracle is not vacuous: traffic
// that sneaks past the model (a direct store write) must trip the next
// cross-check with ErrMismatch.
func TestOracleDetectsBypass(t *testing.T) {
	cfg := smallCfg()
	o := newOracle(t, cfg, checker.Options{})
	if err := o.Write(0, 64, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := o.Store().WriteBlock(100, sim.Microsecond); err != nil {
		t.Fatalf("direct write: %v", err)
	}
	err := o.FullCheck()
	if !errors.Is(err, checker.ErrMismatch) {
		t.Fatalf("bypassing the model produced %v, want ErrMismatch", err)
	}
}

// TestOracleFaultRebuild replays through a mid-trace device failure,
// continues degraded (reads reconstructing from parity), rebuilds
// incrementally, and requires a clean bill of health afterwards.
func TestOracleFaultRebuild(t *testing.T) {
	cfg := smallCfg()
	o := newOracle(t, cfg, checker.Options{Mirror: true})
	tr := zipfTrace(cfg, 8192, 7)
	half := len(tr.Records) / 2
	first := &trace.Trace{Name: "first", Records: tr.Records[:half]}

	bs := int64(cfg.BlockSize)
	for i := range first.Records {
		r := &first.Records[i]
		if r.Op != trace.OpWrite {
			continue
		}
		if err := o.Write(r.Offset/bs, 1, r.Time); err != nil {
			t.Fatalf("first half: %v", err)
		}
	}
	if err := o.FailColumn(1); err != nil {
		t.Fatalf("fail column: %v", err)
	}
	// Degraded full check: reads of the failed column reconstruct.
	if err := o.FullCheck(); err != nil {
		t.Fatalf("degraded check: %v", err)
	}
	if o.MirrorArray().DegradedReads() == 0 {
		t.Fatal("degraded check never reconstructed a chunk")
	}
	// Keep writing while degraded, rebuilding a bit at a time.
	for i := half; i < len(tr.Records); i++ {
		r := &tr.Records[i]
		if r.Op != trace.OpWrite {
			continue
		}
		if err := o.Write(r.Offset/bs, 1, r.Time); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		if i%64 == 0 {
			if _, _, err := o.RebuildStep(4); err != nil {
				t.Fatalf("rebuild step: %v", err)
			}
		}
	}
	for {
		_, done, err := o.RebuildStep(128)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			break
		}
	}
	if o.MirrorArray().FailedColumn() != -1 {
		t.Fatal("array still degraded after rebuild completed")
	}
	if err := o.Drain(o.Store().Now() + sim.Second); err != nil {
		t.Fatalf("post-rebuild check: %v", err)
	}
}

// TestExpectedRecoverySweep is the crash-point property test: random
// operation prefixes, checkpoint, recover, and require the recovered
// mapping to equal the independent ExpectedRecovery prediction and the
// recovered store to pass its own invariants.
func TestExpectedRecoverySweep(t *testing.T) {
	cfg := smallCfg()
	tr := zipfTrace(cfg, 4096, 11)
	rng := sim.NewRNG(99)
	bs := int64(cfg.BlockSize)
	for round := 0; round < 12; round++ {
		cut := 1 + int(rng.Uint64()%uint64(len(tr.Records)))
		s := lss.New(cfg, sepGC(cfg))
		for i := 0; i < cut; i++ {
			r := &tr.Records[i]
			if r.Op != trace.OpWrite {
				continue
			}
			if err := s.WriteBlock(r.Offset/bs, r.Time); err != nil {
				t.Fatalf("cut %d: write: %v", cut, err)
			}
		}
		want := checker.ExpectedRecovery(s)

		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("cut %d: checkpoint: %v", cut, err)
		}
		rec, err := lss.Recover(&buf, cfg, sepGC(cfg))
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if err := checker.CompareRecovered(rec, want); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("cut %d: recovered invariants: %v", cut, err)
		}
	}
}

// TestCrashDuringBackgroundGCSweep checkpoints at every preemption
// point of paused background-GC cycles — after each single-chunk
// GCStep while a cycle is in flight — and requires recovery to roll
// forward to exactly the independently predicted mapping. A crash
// mid-relocation must behave like a crash anywhere else: durable
// chunks win by version, the in-flight cycle simply evaporates.
func TestCrashDuringBackgroundGCSweep(t *testing.T) {
	cfg := smallCfg()
	cfg.BackgroundGC = true
	s := lss.New(cfg, sepGC(cfg))
	rng := sim.NewRNG(17)
	now := sim.Time(0)
	checked := 0
	for op := 0; op < 40000 && checked < 60; op++ {
		now += 10 * sim.Microsecond
		if err := s.WriteBlock(rng.Int63n(cfg.UserBlocks), now); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if !s.GCNeeded() {
			continue
		}
		s.GCStep(1) // smallest slice: pause at the next chunk boundary
		if !s.GCActive() || op%7 != 0 {
			continue // sample the yield points, sweep stays fast
		}
		checked++
		want := checker.ExpectedRecovery(s)
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("op %d: checkpoint: %v", op, err)
		}
		rec, err := lss.Recover(&buf, cfg, sepGC(cfg))
		if err != nil {
			t.Fatalf("op %d: recover: %v", op, err)
		}
		if err := checker.CompareRecovered(rec, want); err != nil {
			t.Fatalf("op %d (mid-GC): %v", op, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("op %d: recovered invariants: %v", op, err)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d mid-GC crash points exercised; workload too small", checked)
	}
}

func TestOracleRejectsUsedStore(t *testing.T) {
	cfg := smallCfg()
	s := lss.New(cfg, sepGC(cfg))
	if err := s.WriteBlock(0, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := checker.New(s, checker.Options{}); err == nil {
		t.Fatal("oracle attached to a used store")
	}
}

func TestMirrorNeedsWideBlocks(t *testing.T) {
	cfg := smallCfg()
	cfg.BlockSize = 8
	if _, err := checker.New(lss.New(cfg, sepGC(cfg)), checker.Options{Mirror: true}); err == nil {
		t.Fatal("mirror accepted blocks too small to encode identity")
	}
}
