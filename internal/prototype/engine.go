package prototype

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/checker"
	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// Ingest is the request-facing engine API: exactly what the network
// server (internal/server) calls on the engine it is handed. *Sharded
// is the one implementation; the interface exists so instrumentation
// can sit between the server and the engine. Whoever built the engine
// owns the rest of its surface (FailColumn, RebuildStep, GCShards,
// Recovered, Drain, Close) on the concrete *Sharded. All
// methods are safe for concurrent use.
type Ingest interface {
	// Config returns the aggregate store geometry (UserBlocks covers
	// the whole LBA space, across every shard).
	Config() lss.Config
	// Now returns the engine's wall-derived simulated time.
	Now() sim.Time

	// The four ops. Each returns the lock-wait / commit breakdown of
	// the call; callers that do not want it discard it.
	WriteTimed(lba int64, blocks int) (OpTiming, error)
	WriteBatchTimed(ops []BatchWrite) (OpTiming, error)
	ReadTimed(lba int64, blocks int) (OpTiming, error)
	TrimTimed(lba int64, blocks int) (OpTiming, error)

	Degraded() bool

	Stats() EngineStats
	// ShardStats returns per-shard snapshots, for per-shard
	// attribution in the serving layer.
	ShardStats() []EngineStats
	// Shards returns the shard count.
	Shards() int
	// ShardOf maps a global LBA to the shard that owns it.
	ShardOf(lba int64) int

	// DurableStats returns the durable-backend counters (summed across
	// shards, tail quantiles taken as the worst shard) and whether a
	// durable backend is attached at all.
	DurableStats() (segfile.Stats, bool)
	// CommitLog commits shard's durable segment log — the seals, frees
	// and checkpoint its ops recorded — holding the shard's lock only to
	// snapshot and hand back, never across an fsync. It returns at once
	// when nothing is recorded or another commit is running, and is a
	// no-op without a durable backend.
	CommitLog(shard int)
}

// GCShard is one shard's background-GC stepping surface — the pacer's
// own interface, so GCShards feeds gcsched.New directly. Every method
// takes the shard's own lock, so a slice excludes user operations on
// that shard only for its duration.
type GCShard = gcsched.Shard

// timebase is what every shard of an engine shares: the clock — time
// since start, or Run's virtual clock — and the synchronous GC cycle in
// progress. Shards partition the LBA space, not time.
type timebase struct {
	start time.Time
	// virtual, when set, is Run's virtual clock (ns since start). Nil in
	// every served engine.
	virtual *atomic.Int64

	// cycle is the synchronous GC cycle that runs alone (Sharded.gateFor
	// sets it), nil when none runs; see awaitGC.
	cycle atomic.Pointer[gcCycle]
}

// gcCycle is a synchronous GC cycle in progress: the shard running it,
// and a channel closed when it ends.
type gcCycle struct {
	shard int32
	done  chan struct{}
}

// awaitGC holds a write bound for shard until a synchronous GC cycle
// running on another shard ends: the cycle then runs without other
// shards' writes beside it and stalls its own shard for less
// (DESIGN.md §9 has the measurement). The cycle's own shard never waits
// here: its next write may be what finishes the cycle.
func (tb *timebase) awaitGC(shard int32) {
	if c := tb.cycle.Load(); c != nil && c.shard != shard {
		<-c.done
	}
}

// now is the clock as simulated time — Run's virtual clock when set,
// else time since start — shared by every shard so interference
// intervals and spans align.
func (tb *timebase) now() sim.Time {
	if tb.virtual != nil {
		return sim.Time(tb.virtual.Load())
	}
	return sim.Time(time.Since(tb.start))
}

// Engine is one shard of a Sharded engine: it wraps a log-structured
// store over a private slice of the LBA space behind a mutex, so
// network servers (internal/server), Run's clients and other live
// producers all drive one store per shard. Simulated time is the
// router's timebase: wall-derived (time since start) on a served
// engine, so the store's SLA-window padding runs against real request
// interarrival gaps, and Run's virtual clock in a prototype run.
//
// All methods are safe for concurrent use. In Run, chunk flushes and
// reads also reach the modelled device array under the engine lock, so
// a saturated column applies backpressure to every producer; a served
// engine has no device model.
type Engine struct {
	mu     sync.Mutex
	store  *lss.Store
	oracle *checker.Oracle

	tb    *timebase // the router's; shared with every other shard
	shard int32
	// devs is Run's device array and rng its column pick for reads;
	// both nil on a served engine.
	devs *deviceArray
	rng  *sim.RNG

	// durable is the file-backed segment backend, nil for a pure
	// in-memory engine; recovered marks that construction rolled the
	// store forward from it instead of starting empty.
	durable   *segfile.Store
	recovered bool

	// Request-tracing state (all guarded by mu). sinkNS accumulates the
	// time blocked on Run's device queues (0 on a served engine); timed
	// zeroes it at the start of each op. itv receives degraded-mode
	// interference intervals; degradedTok is the open interval, 0 when
	// healthy.
	sinkNS      int64
	itv         *telemetry.IntervalLog
	degradedTok int64
	failGen     int64

	// tel is the engine's telemetry set Guarded by mu (nil without
	// telemetry): every gauge over state mu guards registers through it.
	tel *telemetry.Set

	closed bool
}

// EngineConfig describes an ingest engine.
type EngineConfig struct {
	// Store is the store geometry (chunk size, capacity, SLA window).
	Store lss.Config
	// Policy is the placement policy instance to drive.
	Policy lss.Policy
	// ServiceTime is Run's modelled device time per chunk write (default
	// 50 µs ≈ 64 KiB chunks at 1.3 GB/s per SSD); a chunk read takes
	// half of it. A served engine (NewSharded) has no device model and
	// ignores it; the field stays beside the served ones because the
	// benchmark's in-process wiring (bench/inproc.go) still sets it.
	ServiceTime time.Duration
	// QueueDepth bounds each of Run's device queues (default 8); a
	// served engine ignores it.
	QueueDepth int
	// Fill writes every block sequentially (shards in parallel) before
	// the engine is returned, so subsequent traffic runs at full
	// utilization with GC active, as the paper's prototype does after
	// loading.
	Fill bool
	// Telemetry, when set, attaches live instrumentation: store metrics,
	// read at scrape time under their shard's lock, plus Run's
	// per-device counters. Shard stores emit no events and drive no
	// recorder. The Set must be dedicated to this engine: instrument
	// names would collide otherwise.
	Telemetry *telemetry.Set
	// Verify attaches the correctness oracle from internal/checker: all
	// traffic is cross-checked against the flat reference model at the
	// oracle's default cadence, and Close runs the full O(capacity)
	// cross-check.
	Verify bool
	// VerifyMirror additionally maintains the byte-accurate RAID mirror
	// (requires Verify and BlockSize >= 17); it enables FailColumn and
	// RebuildStep, and full checks then verify XOR parity plus read-back
	// of every durable block. Memory grows with chunks written — meant
	// for tests, not long-running servers.
	VerifyMirror bool
	// Durable, when set, persists the store through a file-backed
	// segment log (internal/segfile): every flushed chunk is written
	// through per the configured sync discipline, seals, reclaims and
	// checkpoints commit outside the lock (CommitLog, GCStep) or at
	// Drain, and construction recovers any state the directory already
	// holds (skipping Fill for a recovered store). The engine completes the options itself — Geometry,
	// Telemetry, and shard labels are overwritten from the engine
	// configuration. Verify cannot adopt a recovered store: combining
	// it with a non-empty directory is a construction error.
	Durable *segfile.Options
}

// ErrEngineClosed is returned by operations on a closed engine.
var ErrEngineClosed = errors.New("prototype: engine closed")

// BatchWrite is one write of a batched group commit.
type BatchWrite struct {
	LBA    int64
	Blocks int
}

// newEngineOn builds shard number shard on the router's timebase and,
// in Run, its device array (nil: a served engine). gate is the
// cross-shard GC admission gate wired into the store's Deps.
func newEngineOn(cfg EngineConfig, tb *timebase, da *deviceArray, shard int, gate func() (release func())) (*Engine, error) {
	geo := cfg.Store.GeometryDefaults()
	e := &Engine{tb: tb, shard: int32(shard), devs: da}
	if da != nil {
		e.rng = sim.NewRNG(0xe116 + uint64(shard+1)*0x9e37)
	}
	// The sink runs under the engine lock (the store is only entered
	// with it held) and sends each chunk to the columns the store's
	// RAID-5 array placed it and its stripe's parity on.
	deps := lss.Deps{
		GCGate:  gate,
		Sharded: true,
		Shard:   shard,
		Sink:    da.sink(&e.sinkNS),
	}
	if ts := cfg.Telemetry; ts != nil {
		// The store's gauges read what mu guards, so a scrape evaluates
		// them under this shard's lock and no other.
		e.tel = ts.Guarded(&e.mu)
		deps.Telemetry = e.tel
		// The store's own clock freezes at the op timestamp for the
		// duration of a synchronous GC cycle; interference intervals
		// need real elapsed time, so give it the wall-derived clock.
		deps.Clock = tb.now
		e.itv = ts.Intervals
	}
	if cfg.Durable != nil {
		dopts := *cfg.Durable
		dopts.Geometry = geo
		dopts.Telemetry = cfg.Telemetry
		dopts.Sharded, dopts.Shard = true, shard
		sf, err := segfile.Open(dopts)
		if err != nil {
			e.abort()
			return nil, fmt.Errorf("prototype: durable backend: %w", err)
		}
		e.durable = sf
		deps.Durable = sf
		if sf.HasData() {
			if cfg.Verify {
				e.abort()
				return nil, fmt.Errorf("prototype: Verify cannot adopt a recovered store; start from an empty data directory")
			}
			store, _, err := sf.Recover(cfg.Store, cfg.Policy, deps)
			if err != nil {
				e.abort()
				return nil, fmt.Errorf("prototype: durable recovery: %w", err)
			}
			e.store = store
			e.recovered = true
		}
	}
	if e.store == nil {
		e.store = lss.New(cfg.Store, cfg.Policy, deps)
	}
	if cfg.Verify {
		o, err := checker.New(e.store, checker.Options{Mirror: cfg.VerifyMirror})
		if err != nil {
			e.abort()
			return nil, err
		}
		e.oracle = o
	}
	return e, nil
}

// Recovered reports whether construction rolled the store forward from
// a durable backend instead of starting empty.
func (e *Engine) Recovered() bool { return e.recovered }

// DurableStats returns the durable-backend counters; ok is false for a
// pure in-memory engine.
func (e *Engine) DurableStats() (segfile.Stats, bool) {
	if e.durable == nil {
		return segfile.Stats{}, false
	}
	return e.durable.Stats(), true
}

// abort stops the engine without draining the store — used when
// construction fails part-way.
func (e *Engine) abort() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if e.durable != nil {
		_ = e.durable.Close()
	}
}

// Config returns the store's effective (defaulted) configuration.
func (e *Engine) Config() lss.Config { return e.store.Config() }

// Now returns the engine's clock as simulated time (wall-derived on a
// served engine).
func (e *Engine) Now() sim.Time { return e.tb.now() }

// GCNeeded implements GCShard.
func (e *Engine) GCNeeded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.closed && e.store.GCNeeded()
}

// GCUrgency implements GCShard.
func (e *Engine) GCUrgency() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.GCUrgency()
}

// GCStep implements GCShard. The frees a slice records commit after
// it, outside the lock.
func (e *Engine) GCStep(budget int) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return true
	}
	done := e.store.GCStep(budget)
	e.mu.Unlock()
	e.commitLog()
	return done
}

// commitLog runs the durable log's commit with e.mu held only around
// the snapshot and the hand-back (segfile.Store.CommitOutside).
func (e *Engine) commitLog() {
	if e.durable != nil && e.durable.Pending() {
		e.durable.CommitOutside(&e.mu, e.store.DurableCommitted)
	}
}

// OpTiming is the per-op timing breakdown every engine op returns, for
// request tracing. All stamps are on the engine clock.
type OpTiming struct {
	// Enter is the clock at method entry, before taking the engine
	// lock; Locked is the clock once the lock was acquired, so
	// Locked-Enter is the lock wait.
	Enter, Locked sim.Time
	// Done is the clock at completion (store apply plus, in Run, any
	// device dispatch finished).
	Done sim.Time
	// SinkNS is how long the op was blocked dispatching onto Run's full
	// device queues — device backpressure, a subset of Done-Locked. It
	// is 0 on every served engine, which has no device model; the
	// benchmark's timing decorator (bench/decor.go) still reads it.
	SinkNS int64
}

// timed runs one op under the engine lock and returns its timing
// breakdown: lock wait (for a write, including any wait for another
// shard's GC cycle — timebase.awaitGC), and the share of the hold
// spent blocked on Run's device queues (GC slices and drains between
// ops add to sinkNS too; nobody reads theirs).
func (e *Engine) timed(write bool, op func() error) (OpTiming, error) {
	t := OpTiming{Enter: e.Now()}
	if write {
		e.tb.awaitGC(e.shard)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.Locked = e.Now()
	if e.closed {
		t.Done = t.Locked
		return t, ErrEngineClosed
	}
	e.sinkNS = 0
	err := op()
	t.SinkNS = e.sinkNS
	t.Done = e.Now()
	return t, err
}

// WriteTimed appends blocks user-written blocks starting at lba.
func (e *Engine) WriteTimed(lba int64, blocks int) (OpTiming, error) {
	return e.timed(true, func() error { return e.writeLocked(lba, blocks) })
}

// WriteBatchTimed applies a group commit: every write lands
// back-to-back under one lock acquisition, so a chunk-aligned batch
// fills whole chunks before the SLA window can force padding. The
// OpTiming covers the whole group commit.
func (e *Engine) WriteBatchTimed(ops []BatchWrite) (OpTiming, error) {
	return e.writeBatchTimed(ops, 0)
}

// writeBatchTimed is WriteBatchTimed over ops addressed base blocks
// above the engine's own LBA space, so a router can hand a shard its
// batch without translating it into a new slice.
func (e *Engine) writeBatchTimed(ops []BatchWrite, base int64) (OpTiming, error) {
	return e.timed(true, func() error {
		for _, op := range ops {
			if err := e.writeLocked(op.LBA-base, op.Blocks); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *Engine) writeLocked(lba int64, blocks int) error {
	now := e.Now()
	if e.oracle != nil {
		return e.oracle.Write(lba, blocks, now)
	}
	return e.store.Write(lba, blocks, now)
}

// ReadTimed accounts a user read and, in Run, consumes modelled device
// read time on one column (the store never materializes data bytes;
// callers keep payloads in their own data plane).
func (e *Engine) ReadTimed(lba int64, blocks int) (OpTiming, error) {
	return e.timed(false, func() error {
		now := e.Now()
		if e.oracle != nil {
			e.oracle.Read(lba, blocks, now)
		} else {
			e.store.Read(lba, blocks, now)
		}
		if e.devs != nil {
			e.devs.read(e.rng.Intn(len(e.devs.cols)), &e.sinkNS)
		}
		return nil
	})
}

// TrimTimed discards blocks (TRIM/UNMAP).
func (e *Engine) TrimTimed(lba int64, blocks int) (OpTiming, error) {
	return e.timed(false, func() error {
		now := e.Now()
		if e.oracle != nil {
			return e.oracle.Trim(lba, blocks, now)
		}
		return e.store.Trim(lba, blocks, now)
	})
}

// FailColumn fails one array column in the verification mirror and
// switches the store into degraded-mode GC. Requires VerifyMirror.
func (e *Engine) FailColumn(col int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if e.oracle == nil {
		return fmt.Errorf("prototype: FailColumn requires EngineConfig.Verify with VerifyMirror")
	}
	if err := e.oracle.FailColumn(col); err != nil {
		return err
	}
	e.failGen++
	e.itv.Close(e.degradedTok, e.Now()) // a prior failure's window, if any
	e.degradedTok = e.itv.Open(telemetry.IntervalDegraded, e.failGen, int32(col), e.shard, e.Now())
	return nil
}

// RebuildStep advances the mirror's incremental rebuild by at most
// maxChunks; when the rebuild completes the store leaves degraded mode.
// Requires VerifyMirror.
func (e *Engine) RebuildStep(maxChunks int) (rebuilt int, done bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, false, ErrEngineClosed
	}
	if e.oracle == nil {
		return 0, false, fmt.Errorf("prototype: RebuildStep requires EngineConfig.Verify with VerifyMirror")
	}
	rebuilt, done, err = e.oracle.RebuildStep(maxChunks)
	if err == nil && done && e.degradedTok != 0 {
		e.itv.Close(e.degradedTok, e.Now())
		e.degradedTok = 0
	}
	return rebuilt, done, err
}

// Degraded reports whether the store is running degraded-mode GC.
func (e *Engine) Degraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Degraded()
}

// EngineStats is a point-in-time snapshot of the engine's traffic
// accounting.
type EngineStats struct {
	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64
	ReadBlocks, TrimmedBlocks                         int64
	// PaddedChunks counts chunk flushes that carried any zero padding —
	// the counter the batching ON/OFF comparison watches.
	PaddedChunks int64
	ChunkFlushes int64
	ParityChunks int64
	GCCycles     int64
	FreeSegments int
	WA           float64
	EffectiveWA  float64
	PaddingRatio float64
	// GCGateWaits/GCGateWaitNS count GC cycles that had to wait for the
	// cross-shard scheduler token, and the total time they waited.
	GCGateWaits  int64
	GCGateWaitNS int64
	// GCSlices counts externally paced GC executions; GCEmergencyRuns
	// counts background-mode allocations that hit the emergency floor
	// and collected synchronously. Both zero without BackgroundGC.
	GCSlices        int64
	GCEmergencyRuns int64
	// DurableInlineCommits counts allocations that committed the
	// durable log inline, under the lock (lss.Metrics).
	DurableInlineCommits int64
}

// Stats returns a snapshot of the engine's accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

func (e *Engine) statsLocked() EngineStats {
	m := e.store.Metrics()
	st := EngineStats{
		UserBlocks:      m.UserBlocks,
		GCBlocks:        m.GCBlocks,
		ShadowBlocks:    m.ShadowBlocks,
		PaddingBlocks:   m.PaddingBlocks,
		ReadBlocks:      m.ReadBlocks,
		TrimmedBlocks:   m.TrimmedBlocks,
		ParityChunks:    e.store.Array().ParityChunks(),
		GCCycles:        m.GCCycles,
		GCSlices:        m.GCSlices,
		GCEmergencyRuns: m.GCEmergencyRuns,
		FreeSegments:    e.store.FreeSegments(),

		DurableInlineCommits: m.DurableInlineCommits,
		WA:                   m.WA(),
		EffectiveWA:          m.EffectiveWA(),
		PaddingRatio:         m.PaddingRatio(),
	}
	for i := range m.PerGroup {
		st.PaddedChunks += m.PerGroup[i].PaddingEvents
		st.ChunkFlushes += m.PerGroup[i].ChunkFlushes
	}
	return st
}

// Drain pads and flushes every open chunk. With Verify it also runs the
// oracle's full O(capacity) cross-check (and, with VerifyMirror, RAID
// parity plus byte read-back).
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	return e.drainLocked()
}

func (e *Engine) drainLocked() error {
	now := e.Now()
	if e.oracle != nil {
		return e.oracle.Drain(now)
	}
	e.store.Drain(now)
	return nil
}

// Close drains the store and (with Verify) runs the final full
// cross-check. The engine rejects all traffic afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	err := e.drainLocked()
	e.closed = true
	if e.durable != nil {
		// Drain above already checkpointed and committed through the
		// DurableLog hook; this syncs any remaining dirty tail and
		// releases the handles — under the lock, which a commit still
		// outside it needs for its hand-back.
		if derr := e.durable.Close(); err == nil && derr != nil {
			err = fmt.Errorf("prototype: durable close: %w", derr)
		}
	}
	e.mu.Unlock()
	if ierr := e.store.CheckInvariants(); err == nil && ierr != nil {
		err = fmt.Errorf("prototype: engine close invariants: %w", ierr)
	}
	return err
}
