package prototype

import (
	"sync"
	"testing"
	"time"
)

// The TestEngine* cases drive the smallest engine there is — one
// shard — through the same router every served request takes.
func testEngine(t *testing.T, verify, mirror bool) *Sharded {
	t.Helper()
	return newTestSharded(t, 4096, 1, verify, mirror, false)
}

func TestEngineConcurrentIngest(t *testing.T) {
	e := testEngine(t, true, false)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 1024
			for i := 0; i < 4000; i++ {
				lba := base + int64(i%1024)
				if _, err := e.WriteTimed(lba, 1); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if _, err := e.ReadTimed(lba, 1); err != nil {
						t.Error(err)
						return
					}
				}
				if i%97 == 0 {
					if _, err := e.TrimTimed(base+int64((i+13)%1024), 2); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if st.UserBlocks != writers*4000 {
		t.Fatalf("user blocks %d, want %d", st.UserBlocks, writers*4000)
	}
	if st.GCCycles == 0 {
		t.Fatalf("expected GC activity at full utilization, got none: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close (oracle full check): %v", err)
	}
	if _, err := e.WriteTimed(0, 1); err != ErrEngineClosed {
		t.Fatalf("write after close: got %v, want ErrEngineClosed", err)
	}
}

func TestEngineBatchFillsChunks(t *testing.T) {
	e := testEngine(t, false, false)
	chunk := e.Config().ChunkBlocks
	ops := make([]BatchWrite, chunk)
	stalled := false
	for r := 0; r < 64; r++ {
		for i := range ops {
			ops[i] = BatchWrite{LBA: int64((r*chunk + i) % 4096), Blocks: 1}
		}
		tm, err := e.WriteBatchTimed(ops)
		if err != nil {
			t.Fatal(err)
		}
		// Each write of the batch is stamped on the wall-derived clock,
		// so a host stall longer than the SLA window in the middle of
		// the commit (the race detector on a busy box) ages the open
		// chunk out by itself. That is the scheduler padding, not the
		// batcher; the commit's own timing says when it happened.
		if tm.Done-tm.Locked > e.Config().SLAWindow {
			stalled = true
		}
		// Real interarrival gap: without batching each of these writes
		// would have aged past the 100 µs SLA window alone.
		time.Sleep(200 * time.Microsecond)
	}
	st := e.Stats()
	if stalled {
		t.Logf("a commit outlasted the SLA window; padding (%d blocks) not asserted", st.PaddingBlocks)
	} else if st.PaddingBlocks != 0 {
		t.Fatalf("chunk-aligned batches should never pad before drain, got %d padding blocks", st.PaddingBlocks)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFaultAndRebuild(t *testing.T) {
	e := testEngine(t, true, true)
	for i := int64(0); i < 4096; i++ {
		if _, err := e.WriteTimed(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FailColumn(1); err != nil {
		t.Fatal(err)
	}
	if !e.Degraded() {
		t.Fatal("store should run degraded GC after FailColumn")
	}
	for i := int64(0); i < 4096; i += 3 {
		if _, err := e.WriteTimed(i, 1); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
	}
	for {
		_, done, err := e.RebuildStep(64)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			break
		}
	}
	if e.Degraded() {
		t.Fatal("rebuild completion should clear degraded mode")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close (mirror parity + read-back): %v", err)
	}
}
