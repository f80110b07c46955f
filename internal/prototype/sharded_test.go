package prototype

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
)

// shardedTestConfig is a tiny geometry that keeps GC active: 8-block
// chunks, 4-chunk segments, 25% spare.
func shardedTestConfig(userBlocks int64) lss.Config {
	return lss.Config{
		BlockSize:     64,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    userBlocks,
		OverProvision: 0.25,
	}
}

func sepGCFactory(t *testing.T) PolicyFactory {
	t.Helper()
	return func(shard int, cfg lss.Config) (lss.Policy, error) {
		return placement.NewSepGC(placement.Params{UserBlocks: cfg.UserBlocks}), nil
	}
}

func newTestSharded(t *testing.T, userBlocks int64, shards int, verify, mirror, fill bool) *Sharded {
	t.Helper()
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:        shardedTestConfig(userBlocks),
			ServiceTime:  time.Microsecond,
			Fill:         fill,
			Verify:       verify,
			VerifyMirror: mirror,
		},
		Shards:        shards,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardStallStaysOnItsShard holds shard 1's lock — standing in for
// a GC cycle, a seal fsync or a full device queue on that shard — while
// a metrics scrape runs and shard 0 takes a write. A scrape evaluates
// each shard's gauges under that shard's lock alone, so it waits out
// shard 1 without holding shard 0, and the shard-0 write completes.
func TestShardStallStaysOnItsShard(t *testing.T) {
	ts := telemetry.New(telemetry.Options{})
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       shardedTestConfig(1024),
			ServiceTime: time.Microsecond,
			Telemetry:   ts,
		},
		Shards:        2,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := s.HoldShard(1)
	scraped := make(chan error, 1)
	go func() { scraped <- ts.Registry.WriteProm(io.Discard) }()
	// Long enough for anything periodic that locks every shard (at a
	// 10 ms period, say) to take shard 0 and park on shard 1.
	time.Sleep(50 * time.Millisecond)
	wrote := make(chan error, 1)
	go func() {
		_, err := s.WriteTimed(0, 1)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		release()
		t.Fatal("a shard-0 write waited out shard 1's stall")
	}
	select {
	case <-scraped:
		release()
		t.Fatal("the scrape finished while shard 1 was held: its gauges were read without its lock")
	default:
	}
	release()
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}

// TestWritesWaitOutGCCycle opens a synchronous GC cycle on shard 1
// through its gate, as the store does: the cycle's own shard still
// takes writes (its next write may be what finishes the cycle), reads
// anywhere pass, and a shard-0 write waits until the cycle ends.
func TestWritesWaitOutGCCycle(t *testing.T) {
	s := newTestSharded(t, 1024, 2, false, false, false)
	defer s.Close()
	release := s.gateFor(1)()
	if _, err := s.WriteTimed(s.ShardBase(1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadTimed(0, 1); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := s.WriteTimed(0, 1)
		wrote <- err
	}()
	select {
	case <-wrote:
		release()
		t.Fatal("a shard-0 write ran while shard 1's GC cycle had the columns")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// zipfOp is one step of the deterministic differential trace.
type zipfOp struct {
	lba    int64
	blocks int
	trim   bool
}

// zipfTrace builds a deterministic 100k-op zipfian trace of writes and
// trims over the full LBA space, boundary-crossing ranges included.
func zipfTrace(seed uint64, userBlocks int64, n int) []zipfOp {
	rng := sim.NewRNG(seed)
	z := workload.NewZipf(rng, userBlocks, 0.99, true)
	ops := make([]zipfOp, n)
	for i := range ops {
		lba := z.Next()
		blocks := 1 + int(rng.Intn(4))
		if rest := userBlocks - lba; int64(blocks) > rest {
			blocks = int(rest)
		}
		ops[i] = zipfOp{lba: lba, blocks: blocks, trim: rng.Intn(5) == 0}
	}
	return ops
}

// traceTarget is what a trace replays against: the router, or the
// differential reference Engine that deliberately bypasses it.
type traceTarget interface {
	WriteTimed(lba int64, blocks int) (OpTiming, error)
	TrimTimed(lba int64, blocks int) (OpTiming, error)
}

// applyTrace replays a trace, running step (if any) after every op.
func applyTrace(t *testing.T, eng traceTarget, ops []zipfOp, step func()) {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.trim {
			_, err = eng.TrimTimed(op.lba, op.blocks)
		} else {
			_, err = eng.WriteTimed(op.lba, op.blocks)
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, op, err)
		}
		if step != nil {
			step()
		}
	}
}

// refEngine is the differential reference: one Engine owning the whole
// LBA space over a private device array, filled, and built without the
// router so a routing bug cannot hide on both sides of the comparison.
func refEngine(t *testing.T, cfg lss.Config) *Engine {
	t.Helper()
	ecfg := EngineConfig{Store: cfg, ServiceTime: time.Microsecond}.withDefaults()
	ecfg.Policy = durablePolicy(cfg.GeometryDefaults())
	da := newDeviceArray(cfg.GeometryDefaults().DataColumns+1, ecfg.QueueDepth, ecfg.ServiceTime)
	e, err := newEngineOn(ecfg, da, 0, nil)
	for lba := int64(0); err == nil && lba < cfg.UserBlocks; lba++ {
		_, err = e.WriteTimed(lba, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// liveness returns the per-LBA liveness bitmap of the reference engine
// (s nil) or of the router's shards. The physical location of a block
// differs between the two (independent logs, independent GC), but
// whether an LBA is live depends only on the write/trim history — the
// differential invariant the router must preserve.
func liveness(ref *Engine, s *Sharded, userBlocks int64) []bool {
	out := make([]bool, userBlocks)
	for lba := int64(0); lba < userBlocks; lba++ {
		e, local := ref, lba
		if s != nil {
			sh := s.ShardOf(lba)
			e, local = s.shards[sh], lba-s.bases[sh]
		}
		_, _, out[lba] = e.store.Location(local)
	}
	return out
}

// TestShardedDifferentialZipfian replays one seeded 100k-op zipfian
// trace against the unrouted reference engine and a 4-shard engine and
// requires the identical per-LBA final state. The sharded run carries the checker
// oracle, so every shard is also cross-checked against the reference
// model during the replay and in full at Close.
func TestShardedDifferentialZipfian(t *testing.T) {
	const userBlocks = 8192
	ops := zipfTrace(0xad457, userBlocks, 100_000)

	flat := refEngine(t, shardedTestConfig(userBlocks))
	sharded := newTestSharded(t, userBlocks, 4, true, false, true)

	applyTrace(t, flat, ops, nil)
	applyTrace(t, sharded, ops, nil)
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
		t.Fatalf("%d of %d LBAs diverge between flat and sharded", diffs, userBlocks)
	}

	// The aggregate view must match the reference engine's user traffic
	// exactly: routing must neither drop nor duplicate blocks.
	fs, ss := flat.Stats(), sharded.Stats()
	if fs.UserBlocks != ss.UserBlocks || fs.TrimmedBlocks != ss.TrimmedBlocks {
		t.Fatalf("traffic diverges: flat user=%d trim=%d, sharded user=%d trim=%d",
			fs.UserBlocks, fs.TrimmedBlocks, ss.UserBlocks, ss.TrimmedBlocks)
	}

	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRecoveryPerShard crash-recovers each shard independently:
// checkpoint every shard store, recover each into a fresh store, and
// require per-shard invariants plus an identical live set.
func TestShardedRecoveryPerShard(t *testing.T) {
	const userBlocks = 4096
	s := newTestSharded(t, userBlocks, 4, false, false, true)
	defer s.Close()

	applyTrace(t, s, zipfTrace(0xfeed, userBlocks, 20_000), nil)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	for i, eng := range s.shards {
		var buf bytes.Buffer
		if err := eng.store.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("shard %d checkpoint: %v", i, err)
		}
		pol, err := sepGCFactory(t)(i, eng.store.Config())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := lss.Recover(&buf, eng.store.Config(), pol)
		if err != nil {
			t.Fatalf("shard %d recover: %v", i, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("shard %d recovered invariants: %v", i, err)
		}
		// Every block live before the crash must be live after recovery.
		// The converse is weaker: the checkpoint carries no trim journal,
		// so a trimmed block whose last durable copy still sits in a
		// sealed segment rolls forward again (documented crash semantics
		// of the segment-summary format).
		for lba := int64(0); lba < s.sizes[i]; lba++ {
			_, _, wantLive := eng.store.Location(lba)
			_, _, gotLive := rec.Location(lba)
			if wantLive && !gotLive {
				t.Fatalf("shard %d lba %d: lost after recovery", i, lba)
			}
		}
	}
}

// TestShardedConcurrentFault hammers a mirrored 4-shard engine from
// eight goroutines while a column fails and rebuilds mid-traffic —
// the -race exercise for the router, the GC gate, and the fault
// fan-out across shards.
func TestShardedConcurrentFault(t *testing.T) {
	const userBlocks = 4096
	s := newTestSharded(t, userBlocks, 4, true, true, true)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(g)*7919 + 3)
			z := workload.NewZipf(rng, userBlocks, 0.99, true)
			for i := 0; i < 3000; i++ {
				lba := z.Next()
				switch rng.Intn(10) {
				case 0:
					if _, err := s.TrimTimed(lba, 1); err != nil {
						t.Errorf("goroutine %d trim: %v", g, err)
						return
					}
				case 1:
					if _, err := s.ReadTimed(lba, 1); err != nil {
						t.Errorf("goroutine %d read: %v", g, err)
						return
					}
				default:
					n := 1 + int(rng.Intn(3))
					if rest := userBlocks - lba; int64(n) > rest {
						n = int(rest)
					}
					if _, err := s.WriteTimed(lba, n); err != nil {
						t.Errorf("goroutine %d write: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	// Fail a column mid-traffic, then rebuild online. Every shard must
	// degrade and every shard must come back.
	time.Sleep(2 * time.Millisecond)
	if err := s.FailColumn(1); err != nil {
		t.Fatalf("fail column: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("not degraded after FailColumn")
	}
	for _, e := range s.shards {
		if !e.Degraded() {
			t.Fatal("a shard stayed healthy through a shared-column failure")
		}
	}
	for {
		_, done, err := s.RebuildStep(64)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			break
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.Degraded() {
		t.Fatal("still degraded after full rebuild")
	}

	st := s.Stats()
	if st.UserBlocks == 0 {
		t.Fatal("no traffic accounted")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close (per-shard oracle full check): %v", err)
	}
}

// TestShardedRouting pins the partition arithmetic: contiguous slices,
// remainder to the last shard, boundary-crossing ops split correctly.
func TestShardedRouting(t *testing.T) {
	const userBlocks = 4100 // not divisible by 4: last shard gets +4
	s := newTestSharded(t, userBlocks, 4, false, false, false)
	defer s.Close()

	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d", got)
	}
	if s.shardBlocks != userBlocks/4 {
		t.Fatalf("shardBlocks = %d, want %d", s.shardBlocks, userBlocks/4)
	}
	if last := s.sizes[3]; last != userBlocks-3*(userBlocks/4) {
		t.Fatalf("last shard size = %d", last)
	}
	for _, tc := range []struct {
		lba  int64
		want int
	}{
		{0, 0}, {s.shardBlocks - 1, 0}, {s.shardBlocks, 1},
		{userBlocks - 1, 3}, {3 * s.shardBlocks, 3},
	} {
		if got := s.ShardOf(tc.lba); got != tc.want {
			t.Errorf("ShardOf(%d) = %d, want %d", tc.lba, got, tc.want)
		}
	}

	// A write crossing the shard 0/1 boundary must land in both shards.
	cross := s.shardBlocks - 2
	if _, err := s.WriteTimed(cross, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 4; off++ {
		lba := cross + off
		sh := s.ShardOf(lba)
		if _, _, live := s.shards[sh].store.Location(lba - s.bases[sh]); !live {
			t.Errorf("lba %d (shard %d) not live after boundary write", lba, sh)
		}
	}

	// The aggregate config spans the whole space.
	if got := s.Config().UserBlocks; got != userBlocks {
		t.Fatalf("Config().UserBlocks = %d, want %d", got, userBlocks)
	}
	if st := s.Stats(); st.UserBlocks != 4 {
		t.Fatalf("aggregate UserBlocks = %d, want 4", st.UserBlocks)
	}
}

// TestShardedStatsShape checks ShardStats arity and the
// WriteBatchTimed bucketing across shards.
func TestShardedStatsShape(t *testing.T) {
	const userBlocks = 4096
	s := newTestSharded(t, userBlocks, 4, false, false, false)
	defer s.Close()

	// One batch touching every shard.
	var ops []BatchWrite
	for i := 0; i < 4; i++ {
		ops = append(ops, BatchWrite{LBA: s.bases[i], Blocks: 2})
	}
	if _, err := s.WriteBatchTimed(ops); err != nil {
		t.Fatal(err)
	}
	sst := s.ShardStats()
	if len(sst) != 4 {
		t.Fatalf("ShardStats len = %d", len(sst))
	}
	for i, st := range sst {
		if st.UserBlocks != 2 {
			t.Fatalf("shard %d UserBlocks = %d, want 2 (batch mis-bucketed: %+v)", i, st.UserBlocks, sst)
		}
	}
	if _, err := s.WriteBatchTimed([]BatchWrite{{LBA: 0, Blocks: 1}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UserBlocks != 9 {
		t.Fatalf("aggregate UserBlocks = %d, want 9", st.UserBlocks)
	}
}

// TestShardedBatchOrderAndAllocs: a one-shard group commit allocates
// nothing on its way to the shard, and a mixed batch is applied in
// ascending shard order whatever order its ops arrive in — a failing
// op on shard 0, listed last, stops the batch before shards 1–3 see
// theirs.
func TestShardedBatchOrderAndAllocs(t *testing.T) {
	s := newTestSharded(t, 4096, 4, false, false, false)
	defer s.Close()

	one := []BatchWrite{{LBA: s.bases[2] + 3, Blocks: 2}, {LBA: s.bases[2] + 40, Blocks: 1}}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.WriteBatchTimed(one); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a one-shard batch allocates %.1f times per commit, want 0", n)
	}
	if got := s.ShardStats()[2].UserBlocks; got != 3*201 {
		t.Fatalf("shard 2 UserBlocks = %d after 201 one-shard batches of 3 blocks, want %d", got, 3*201)
	}

	mixed := []BatchWrite{
		{LBA: s.bases[3], Blocks: 1},
		{LBA: s.bases[1], Blocks: 1},
		{LBA: s.bases[2] + 100, Blocks: 1},
		{LBA: -8, Blocks: 1}, // shard 0's, and out of range
	}
	if _, err := s.WriteBatchTimed(mixed); err == nil {
		t.Fatal("a batch with an out-of-range op succeeded")
	}
	for i, st := range s.ShardStats() {
		want := int64(0)
		if i == 2 {
			want = 3 * 201
		}
		if st.UserBlocks != want {
			t.Fatalf("shard %d UserBlocks = %d after a batch failing on shard 0, want %d", i, st.UserBlocks, want)
		}
	}
}
