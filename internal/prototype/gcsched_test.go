package prototype

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/lss"
)

func backgroundTestConfig(userBlocks int64) lss.Config {
	cfg := shardedTestConfig(userBlocks)
	cfg.BackgroundGC = true
	return cfg
}

// gcStepper is applyTrace's per-op hook for deterministic
// background-GC pacing: every operation is followed by one bounded
// slice on every shard, the per-op analogue of the wall-clock pacer.
func gcStepper(shards []GCShard) func() {
	return func() {
		for _, gs := range shards {
			gs.GCStep(8)
		}
	}
}

// TestBackgroundGCDifferentialZipfian is the reference-vs-sharded
// differential with background GC enabled on both sides: one seeded
// zipfian trace, per-op paced slices instead of synchronous cycles,
// and the identical per-LBA final state required. The sharded run
// carries the checker oracle throughout.
func TestBackgroundGCDifferentialZipfian(t *testing.T) {
	const userBlocks = 8192
	ops := zipfTrace(0xbd457, userBlocks, 60_000)

	flat := refEngine(t, backgroundTestConfig(userBlocks))
	sharded, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:  backgroundTestConfig(userBlocks),
			Fill:   true,
			Verify: true,
		},
		Shards:        4,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	applyTrace(t, flat, ops, gcStepper([]GCShard{flat}))
	applyTrace(t, sharded, ops, gcStepper(sharded.GCShards()))
	if err := flat.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Drain(); err != nil {
		t.Fatal(err)
	}

	flatLive := liveness(flat, nil, userBlocks)
	shardLive := liveness(nil, sharded, userBlocks)
	diffs := 0
	for lba := range flatLive {
		if flatLive[lba] != shardLive[lba] {
			diffs++
			if diffs <= 5 {
				t.Errorf("lba %d: flat live=%v sharded live=%v", lba, flatLive[lba], shardLive[lba])
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d LBAs diverge between flat and sharded under background GC", diffs, userBlocks)
	}
	fs, ss := flat.Stats(), sharded.Stats()
	if fs.UserBlocks != ss.UserBlocks || fs.TrimmedBlocks != ss.TrimmedBlocks {
		t.Fatalf("traffic diverges: flat user=%d trim=%d, sharded user=%d trim=%d",
			fs.UserBlocks, fs.TrimmedBlocks, ss.UserBlocks, ss.TrimmedBlocks)
	}
	if fs.GCSlices == 0 || ss.GCSlices == 0 {
		t.Fatalf("background GC never paced: flat slices=%d sharded slices=%d", fs.GCSlices, ss.GCSlices)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundGCConcurrentDegraded is the -race regression for the
// degraded-toggle-versus-in-flight-GC fix: concurrent writers, an
// asynchronous pacer buying slices through the GCShard surface, and a
// fault loop failing a column and rebuilding it — all against one
// single-shard engine with the mirror-backed oracle attached. Before GC became a
// preemptible state machine with mode latching at victim-batch
// boundaries, this interleaving could flip the relocation target of a
// cycle already in flight.
func TestBackgroundGCConcurrentDegraded(t *testing.T) {
	e, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:        backgroundTestConfig(4096),
			Verify:       true,
			VerifyMirror: true,
			Fill:         true,
		},
		Shards:        1,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg, pacer sync.WaitGroup
	pacer.Add(1)
	go func() { // the pacer
		defer pacer.Done()
		shards := e.GCShards()
		for !stop.Load() {
			for _, gs := range shards {
				if gs.GCNeeded() {
					gs.GCStep(16)
				}
			}
		}
	}()
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 1024
			for i := 0; i < 3000; i++ {
				if _, err := e.WriteTimed(base+int64(i%1024), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 3; round++ {
		if err := e.FailColumn(1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let writers and pacer run degraded
		for {
			_, done, err := e.RebuildStep(64)
			if err != nil {
				t.Fatalf("rebuild round %d: %v", round, err)
			}
			if done {
				break
			}
		}
	}
	// The pacer outlives the writers: stopped with the fault loop it
	// could exit before the writers had drained the pool the fill left
	// to the low watermark, and never be needed.
	wg.Wait()
	stop.Store(true)
	pacer.Wait()
	if e.Degraded() {
		t.Fatal("rebuild completion should clear degraded mode")
	}
	st := e.Stats()
	if st.GCSlices == 0 {
		t.Fatal("pacer never bought a slice")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close (mirror parity + read-back): %v", err)
	}
}

// TestGCSchedSurfaceShape pins the pacer-facing surface: shard counts,
// urgency, and trivial stepping on an idle store.
func TestGCSchedSurfaceShape(t *testing.T) {
	for _, n := range []int{1, 4} {
		s := newTestSharded(t, 4096, n, false, false, false)
		defer s.Close()
		shards := s.GCShards()
		if len(shards) != n || s.Shards() != n {
			t.Fatalf("%d-shard engine exposes %d GC shards (Shards() = %d)", n, len(shards), s.Shards())
		}
		if u := shards[0].GCUrgency(); u != 0 {
			t.Fatalf("fresh store urgency %v, want 0", u)
		}
		if !shards[0].GCStep(8) {
			t.Fatal("idle store must report GC done")
		}
	}
}
