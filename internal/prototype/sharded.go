package prototype

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// PolicyFactory builds the placement policy for one shard. cfg is the
// shard store's geometry (UserBlocks already cut down to the shard's
// slice); each shard must get its own policy instance because policies
// hold per-store state.
type PolicyFactory func(shard int, cfg lss.Config) (lss.Policy, error)

// ShardedConfig describes an ingest engine.
type ShardedConfig struct {
	// Engine carries the store geometry and telemetry shared by every
	// shard (its device-model fields are Run's). Engine.Store.UserBlocks
	// is the aggregate LBA space; Engine.Policy is ignored in favour of
	// PolicyFactory.
	Engine EngineConfig
	// Shards is the shard count (default runtime.GOMAXPROCS(0)).
	Shards int
	// PolicyFactory builds each shard's placement policy. Required.
	PolicyFactory PolicyFactory
}

// Sharded is the ingest engine — the only one: it partitions the LBA
// space into contiguous per-core slices, each owned by an independent
// Engine (own lss.Store, own lock, own victim index, own GC
// watermarks) on one shared clock — the shards split the address space,
// not the hardware. One shard is the smallest engine, not a different
// kind. It implements Ingest, the slice of its surface the network
// server drives.
//
// Cross-shard coordination is deliberately minimal: a one-token gate
// serializes synchronous GC cycles across shards so no two shards
// relocate at once (the paper's GC interferes with foreground I/O
// through the array all shards share), and while a cycle runs, writes
// bound for the other shards wait for it to end. Shards count the time
// their cycles wait in GCGateWaits/GCGateWaitNS. Nothing holds two
// shard locks at once: a metrics scrape takes them one at a time.
type Sharded struct {
	shards      []*Engine
	bases       []int64 // first global LBA of each shard
	sizes       []int64 // blocks owned by each shard
	shardBlocks int64   // blocks per shard (last shard absorbs remainder)
	cfg         lss.Config
	tb          *timebase

	gate       chan struct{} // 1-token GC scheduler
	gateWaits  []atomic.Int64
	gateWaitNS []atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// shardFS, when set, gives each shard's segment log its own filesystem
// in place of its subdirectory: the in-package tests count what each
// shard's log issues on a MemFS of its own.
var shardFS func(shard int) segfile.FS

// NewSharded builds and starts an ingest engine on the wall clock, with
// no device model. The caller must Close it to drain open chunks. Direct
// construction is for this module's own tooling; everything else
// should go through the public adapt.NewEngine, which shares the
// simulator's configuration validation (typed policy names, GCSched
// floors as errors instead of panics).
func NewSharded(cfg ShardedConfig) (*Sharded, error) { return newSharded(cfg, nil) }

// newSharded is NewSharded over Run's device array (nil: a served
// engine), whose virtual clock becomes the engine's and whose fault
// hook is set before anything is sent, so the fill runs on that clock
// and its chunks count toward what a failed column holds.
func newSharded(cfg ShardedConfig, devs *deviceArray) (*Sharded, error) {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if cfg.PolicyFactory == nil {
		return nil, fmt.Errorf("prototype: sharded engine requires a PolicyFactory")
	}
	ecfg := cfg.Engine
	if ecfg.VerifyMirror && !ecfg.Verify {
		return nil, fmt.Errorf("prototype: VerifyMirror requires Verify")
	}
	// The partition must exist before any policy (and thus any store)
	// does, so default the group-independent geometry here; each shard
	// store re-runs the same defaulting on its slice.
	geo := ecfg.Store.GeometryDefaults()
	if int64(n) > geo.UserBlocks/int64(geo.ChunkBlocks) {
		return nil, fmt.Errorf("prototype: %d shards over %d blocks leaves sub-chunk shards", n, geo.UserBlocks)
	}

	s := &Sharded{
		shards:      make([]*Engine, 0, n),
		bases:       make([]int64, n),
		sizes:       make([]int64, n),
		shardBlocks: geo.UserBlocks / int64(n),
		cfg:         geo,
		gate:        make(chan struct{}, 1),
		gateWaits:   make([]atomic.Int64, n),
		gateWaitNS:  make([]atomic.Int64, n),
	}
	s.tb = &timebase{start: time.Now()}
	if devs != nil {
		s.tb.virtual = devs.clock
	}

	fill := ecfg.Fill
	for i := 0; i < n; i++ {
		s.bases[i] = int64(i) * s.shardBlocks
		s.sizes[i] = s.shardBlocks
		if i == n-1 {
			s.sizes[i] = geo.UserBlocks - s.bases[i]
		}
		scfg := ecfg
		scfg.Fill = false // filled in parallel below
		scfg.Store = geo
		scfg.Store.UserBlocks = s.sizes[i]
		if ecfg.Durable != nil {
			if ecfg.Durable.Dir == "" {
				s.teardown()
				return nil, fmt.Errorf("prototype: sharded durable backend requires Options.Dir (one subdirectory per shard)")
			}
			dopts := *ecfg.Durable
			dopts.Dir = filepath.Join(ecfg.Durable.Dir, fmt.Sprintf("shard-%d", i))
			if shardFS != nil {
				dopts.FS = shardFS(i)
			}
			scfg.Durable = &dopts
		}
		pol, err := cfg.PolicyFactory(i, scfg.Store)
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("prototype: shard %d policy: %w", i, err)
		}
		scfg.Policy = pol
		eng, err := newEngineOn(scfg, s.tb, devs, i, s.gateFor(i))
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("prototype: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, eng)
	}

	if fill {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, eng := range s.shards {
			if eng.Recovered() {
				// The shard rolled forward from its durable directory;
				// refilling would overwrite the recovered state.
				continue
			}
			wg.Add(1)
			go func(i int, eng *Engine) {
				defer wg.Done()
				for lba := int64(0); lba < s.sizes[i]; lba++ {
					if _, err := eng.WriteTimed(lba, 1); err != nil {
						errs[i] = err
						return
					}
				}
			}(i, eng)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				s.teardown()
				return nil, fmt.Errorf("prototype: shard %d fill: %w", i, err)
			}
		}
	}
	return s, nil
}

// gateFor builds the cross-shard GC admission gate for one shard,
// wired through the store's construction Deps: a synchronous GC cycle
// must hold the single token for its duration, so at most one shard
// relocates segments at a time — and, while it runs, other shards'
// writes wait (timebase.awaitGC). Under background GC the store ignores
// the gate — the pacer itself serializes slices across shards.
func (s *Sharded) gateFor(i int) func() (release func()) {
	return func() (release func()) {
		select {
		case s.gate <- struct{}{}:
		default:
			t0 := time.Now()
			s.gate <- struct{}{}
			s.gateWaits[i].Add(1)
			s.gateWaitNS[i].Add(time.Since(t0).Nanoseconds())
		}
		c := &gcCycle{shard: int32(i), done: make(chan struct{})}
		s.tb.cycle.Store(c)
		return func() {
			s.tb.cycle.Store(nil)
			close(c.done)
			<-s.gate
		}
	}
}

// teardown closes whatever construction managed to start.
func (s *Sharded) teardown() {
	for _, e := range s.shards {
		e.abort()
	}
}

// Config returns the aggregate geometry: the defaulted store config
// with UserBlocks spanning the whole sharded LBA space.
func (s *Sharded) Config() lss.Config { return s.cfg }

// Now returns the shared wall-derived simulated time.
func (s *Sharded) Now() sim.Time { return s.tb.now() }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// GCShards returns each shard engine as an independent GC-stepping
// target; the pacer serializes slices across them, which is the
// background-mode replacement for the one-token gate.
func (s *Sharded) GCShards() []GCShard {
	out := make([]GCShard, len(s.shards))
	for i, e := range s.shards {
		out[i] = e
	}
	return out
}

// ShardOf maps a global LBA to its owning shard.
func (s *Sharded) ShardOf(lba int64) int {
	if lba < 0 {
		return 0
	}
	i := int(lba / s.shardBlocks)
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// eachShard splits the global range [lba, lba+blocks) into per-shard
// local ranges and invokes fn for each, in ascending shard order.
func (s *Sharded) eachShard(lba int64, blocks int, fn func(sh int, local int64, n int) error) error {
	for blocks > 0 {
		sh := s.ShardOf(lba)
		end := s.bases[sh] + s.sizes[sh]
		n := blocks
		if rest := end - lba; int64(n) > rest {
			n = int(rest)
		}
		if n <= 0 { // out of range: let the owning store reject it
			n = blocks
		}
		if err := fn(sh, lba-s.bases[sh], n); err != nil {
			return err
		}
		lba += int64(n)
		blocks -= n
	}
	return nil
}

// mergeTiming folds one sub-op's timing into the whole-op view: first
// Enter/Locked, last Done, Run's device backpressure summed.
func mergeTiming(dst *OpTiming, t OpTiming, first bool) {
	if first {
		dst.Enter = t.Enter
		dst.Locked = t.Locked
	}
	dst.Done = t.Done
	dst.SinkNS += t.SinkNS
}

// eachTimed applies op to the global range [lba, lba+blocks), splitting
// it across shard boundaries as needed; the timing breakdown spans
// every touched shard.
func (s *Sharded) eachTimed(lba int64, blocks int, op func(e *Engine, local int64, n int) (OpTiming, error)) (OpTiming, error) {
	var out OpTiming
	first := true
	err := s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		t, err := op(s.shards[sh], local, n)
		mergeTiming(&out, t, first)
		first = false
		return err
	})
	return out, err
}

// WriteTimed appends blocks starting at the global lba.
func (s *Sharded) WriteTimed(lba int64, blocks int) (OpTiming, error) {
	return s.eachTimed(lba, blocks, (*Engine).WriteTimed)
}

// ReadTimed accounts a user read.
func (s *Sharded) ReadTimed(lba int64, blocks int) (OpTiming, error) {
	return s.eachTimed(lba, blocks, (*Engine).ReadTimed)
}

// TrimTimed discards blocks.
func (s *Sharded) TrimTimed(lba int64, blocks int) (OpTiming, error) {
	return s.eachTimed(lba, blocks, (*Engine).TrimTimed)
}

// oneShard returns the shard that owns every op of a non-empty batch
// whole, if one does.
func (s *Sharded) oneShard(ops []BatchWrite) (int, bool) {
	if len(ops) == 0 {
		return 0, false
	}
	sh := s.ShardOf(ops[0].LBA)
	lo, hi := s.bases[sh], s.bases[sh]+s.sizes[sh]
	for _, op := range ops {
		if op.Blocks < 1 || op.LBA < lo || op.LBA+int64(op.Blocks) > hi {
			return 0, false
		}
	}
	return sh, true
}

// bucketBatch splits a global-LBA batch into per-shard local batches,
// indexed by shard.
func (s *Sharded) bucketBatch(ops []BatchWrite) [][]BatchWrite {
	buckets := make([][]BatchWrite, len(s.shards))
	for _, op := range ops {
		s.eachShard(op.LBA, op.Blocks, func(sh int, local int64, n int) error {
			buckets[sh] = append(buckets[sh], BatchWrite{LBA: local, Blocks: n})
			return nil
		})
	}
	return buckets
}

// WriteBatchTimed applies a group commit. A batch one shard owns — what
// the server's per-shard committers build — lands back-to-back under
// that shard's single lock acquisition and allocates nothing. A mixed
// batch is split per shard (each sub-batch keeps the group-commit
// chunk-fill property within its shard) and applied in ascending shard
// order, so the shard locks are taken in one order and the merged
// timing's first shard is the lowest; it stops at the first error.
func (s *Sharded) WriteBatchTimed(ops []BatchWrite) (OpTiming, error) {
	if sh, ok := s.oneShard(ops); ok {
		return s.shards[sh].writeBatchTimed(ops, s.bases[sh])
	}
	var out OpTiming
	first := true
	for sh, sub := range s.bucketBatch(ops) {
		if len(sub) == 0 {
			continue
		}
		t, err := s.shards[sh].WriteBatchTimed(sub)
		mergeTiming(&out, t, first)
		first = false
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// FailColumn fails one physical array column. The column is shared
// hardware, so the failure degrades every shard: the fan-out stops at
// the first error (the shards already degraded stay degraded — the
// caller sees the error and the array is in a genuinely mixed state
// only if the mirror rejected the column, which the first shard
// catches before any state changes).
func (s *Sharded) FailColumn(col int) error {
	for _, e := range s.shards {
		if err := e.FailColumn(col); err != nil {
			return err
		}
	}
	return nil
}

// RebuildStep spreads the chunk budget over the shards' rebuilds in
// shard order; done reports whether every shard's rebuild finished.
func (s *Sharded) RebuildStep(maxChunks int) (rebuilt int, done bool, err error) {
	done = true
	for _, e := range s.shards {
		budget := maxChunks - rebuilt
		if budget <= 0 {
			return rebuilt, false, nil
		}
		n, d, err := e.RebuildStep(budget)
		rebuilt += n
		if err != nil {
			return rebuilt, false, err
		}
		if !d {
			done = false
		}
	}
	return rebuilt, done, nil
}

// Degraded reports whether any shard runs degraded-mode GC.
func (s *Sharded) Degraded() bool {
	for _, e := range s.shards {
		if e.Degraded() {
			return true
		}
	}
	return false
}

// ShardStats returns one snapshot per shard, GC gate waits included.
func (s *Sharded) ShardStats() []EngineStats {
	out := make([]EngineStats, len(s.shards))
	for i, e := range s.shards {
		st := e.Stats()
		st.GCGateWaits = s.gateWaits[i].Load()
		st.GCGateWaitNS = s.gateWaitNS[i].Load()
		out[i] = st
	}
	return out
}

// Stats aggregates the shard snapshots; the ratio fields are recomputed
// from the summed traffic so they match what one flat store would
// report for the same block counts.
func (s *Sharded) Stats() EngineStats {
	var agg EngineStats
	for _, st := range s.ShardStats() {
		agg.UserBlocks += st.UserBlocks
		agg.GCBlocks += st.GCBlocks
		agg.ShadowBlocks += st.ShadowBlocks
		agg.PaddingBlocks += st.PaddingBlocks
		agg.ReadBlocks += st.ReadBlocks
		agg.TrimmedBlocks += st.TrimmedBlocks
		agg.PaddedChunks += st.PaddedChunks
		agg.ChunkFlushes += st.ChunkFlushes
		agg.ParityChunks += st.ParityChunks
		agg.GCCycles += st.GCCycles
		agg.FreeSegments += st.FreeSegments
		agg.GCGateWaits += st.GCGateWaits
		agg.GCGateWaitNS += st.GCGateWaitNS
		agg.GCSlices += st.GCSlices
		agg.GCEmergencyRuns += st.GCEmergencyRuns
		agg.DurableInlineCommits += st.DurableInlineCommits
	}
	agg.WA = 1
	agg.EffectiveWA = 1
	total := agg.UserBlocks + agg.GCBlocks + agg.ShadowBlocks + agg.PaddingBlocks
	if agg.UserBlocks > 0 {
		agg.WA = float64(agg.UserBlocks+agg.GCBlocks) / float64(agg.UserBlocks)
		agg.EffectiveWA = float64(total) / float64(agg.UserBlocks)
	}
	if total > 0 {
		agg.PaddingRatio = float64(agg.PaddingBlocks) / float64(total)
	}
	return agg
}

// DurableStats sums the shard backends' counters (tail quantiles take
// the worst shard); ok is false when no shard has a durable backend.
func (s *Sharded) DurableStats() (segfile.Stats, bool) {
	var agg segfile.Stats
	ok := false
	for _, e := range s.shards {
		st, has := e.DurableStats()
		if !has {
			continue
		}
		ok = true
		agg.SyncedSegments += st.SyncedSegments
		agg.Fsyncs += st.Fsyncs
		agg.DirSyncs += st.DirSyncs
		agg.Checkpoints += st.Checkpoints
		agg.BytesWritten += st.BytesWritten
		agg.RecoveredSegments += st.RecoveredSegments
		agg.RecoveredBlocks += st.RecoveredBlocks
		agg.TornRecords += st.TornRecords
		agg.CorruptFiles += st.CorruptFiles
		if st.FsyncP50NS > agg.FsyncP50NS {
			agg.FsyncP50NS = st.FsyncP50NS
		}
		if st.FsyncP99NS > agg.FsyncP99NS {
			agg.FsyncP99NS = st.FsyncP99NS
		}
		if st.FsyncP999NS > agg.FsyncP999NS {
			agg.FsyncP999NS = st.FsyncP999NS
		}
	}
	return agg, ok
}

// CommitLog commits shard's durable segment log outside the shard's
// lock; see Ingest.
func (s *Sharded) CommitLog(shard int) { s.shards[shard].commitLog() }

// Recovered reports whether any shard rolled forward from its durable
// directory.
func (s *Sharded) Recovered() bool {
	for _, e := range s.shards {
		if e.Recovered() {
			return true
		}
	}
	return false
}

// Shard returns the i'th shard engine — the differential and recovery
// tests inspect shard stores directly.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// ShardBase returns the first global LBA owned by shard i.
func (s *Sharded) ShardBase(i int) int64 { return s.bases[i] }

// Drain pads and flushes every shard's open chunks (and runs the full
// oracle cross-check per shard when verification is on).
func (s *Sharded) Drain() error {
	for i, e := range s.shards {
		if err := e.Drain(); err != nil {
			return fmt.Errorf("prototype: shard %d drain: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard (draining and invariant-checking each
// store).
func (s *Sharded) Close() error {
	s.closeOnce.Do(func() {
		for i, e := range s.shards {
			if err := e.Close(); err != nil && s.closeErr == nil {
				s.closeErr = fmt.Errorf("prototype: shard %d close: %w", i, err)
			}
		}
	})
	return s.closeErr
}

var _ Ingest = (*Sharded)(nil)
