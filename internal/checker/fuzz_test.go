package checker_test

import (
	"errors"
	"testing"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/sim"
)

// FuzzOracleOps drives the full oracle — reference model plus byte
// mirror — with a fuzzed operation stream that includes device
// failures and partial rebuilds. Request-validation errors (out-of-
// range writes, double faults) are expected; a reference-model
// divergence is a bug by definition, whatever the input.
func FuzzOracleOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 11, 0, 4, 1, 0, 0, 12, 0, 5, 8, 0})
	f.Add([]byte{0, 1, 0, 2, 1, 0, 3, 100, 1, 0, 2, 1})
	f.Add([]byte{4, 0, 0, 4, 1, 0, 5, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := lss.Config{
			BlockSize:     32,
			ChunkBlocks:   4,
			SegmentChunks: 4,
			UserBlocks:    1024,
			OverProvision: 0.3,
		}
		o, err := checker.New(lss.New(cfg, sepGC(cfg)), checker.Options{Mirror: true, CheckEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		fatalOnMismatch := func(err error) {
			if err != nil && errors.Is(err, checker.ErrMismatch) {
				t.Fatalf("oracle mismatch: %v", err)
			}
		}
		// The store applies geometry defaults; read the effective column
		// count back so the fault op covers every column plus one past
		// the end.
		cols := o.Store().Config().DataColumns
		now := sim.Time(0)
		ops := 0
		for i := 0; i+2 < len(data) && ops < 2048; i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			lba := (int64(a) | int64(b)<<8) % (cfg.UserBlocks + 8)
			switch op % 6 {
			case 0, 1:
				fatalOnMismatch(o.Write(lba, 1, now))
			case 2:
				fatalOnMismatch(o.Trim(lba, int(a%8)+1, now))
			case 3:
				now += sim.Time(a) * sim.Microsecond
			case 4:
				// Double faults are expected rejections; mismatches are not.
				fatalOnMismatch(o.FailColumn(int(a) % (cols + 2)))
			case 5:
				_, _, err := o.RebuildStep(int(a)%64 + 1)
				fatalOnMismatch(err)
			}
			ops++
		}
		// Finish any outstanding rebuild so the final audit sees a
		// healthy array, then require a completely clean bill.
		for o.MirrorArray().FailedColumn() >= 0 {
			if _, done, err := o.RebuildStep(1 << 10); err != nil {
				t.Fatalf("rebuild: %v", err)
			} else if done {
				break
			}
		}
		if err := o.Drain(now + sim.Second); err != nil {
			t.Fatalf("final audit after %d ops: %v", ops, err)
		}
	})
}
