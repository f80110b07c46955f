// Package prototype is the concurrent counterpart of the trace-driven
// simulator, mirroring the paper's prototype experiments (§4.4):
// virtual clients (Run) or network servers (through Ingest) drive one
// engine, Sharded, a log-structured store per LBA shard. Run also
// models the SSD array: its stores dispatch every chunk flush to a
// bandwidth-modelled column in the RAID-5 layout (rotating parity)
// their own array accounting places it on, through bounded per-device
// queues, so GC and padding traffic compete with user writes for
// device time as on the real array. The whole model runs on Run's
// virtual clock, so its numbers are exact per seed. A served engine
// has no device model: it keeps only the wall clock and the
// cross-shard GC pause.
package prototype

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
)

// Config describes one prototype run: the engine to stand up and the
// clients to drive it with.
type Config struct {
	// Engine is the engine under test — store geometry, policy, device
	// model, Fill (every block written sequentially before the measured
	// phase, so updates run at full utilization with GC active, as the
	// paper's prototype does after loading) and Telemetry (the engine's
	// per-device and {shard="0"} store metrics, plus the policy's own and
	// the injector's counters; the Set must be dedicated to this run).
	Engine EngineConfig
	// Clients is the number of closed-loop clients.
	Clients int
	// Ops is the total number of 4 KiB user operations across clients.
	Ops int64
	// Theta is the zipfian skew of the update stream (YCSB-A: 0.99).
	Theta float64
	// ReadRatio interleaves reads at this fraction of operations, in
	// [0, 1] (YCSB-A: 0.5). Reads consume device time on a random
	// column, competing with writes.
	ReadRatio float64
	// Think is each client's mean pause between its ops, exponentially
	// distributed; zero keeps every client issuing back to back.
	Think time.Duration
	// Seed drives the zipfian streams.
	Seed uint64
	// GC paces background GC when Engine.Store.BackgroundGC is set: the
	// gcsched pacer the server runs, ticking every GC.Interval on Run's
	// clock. Run supplies its QueueFill and, when TargetP999 is set, its
	// P999: the largest latency of the last 1024 ops; a caller-set
	// QueueFill or P999 is an error. Ignored without BackgroundGC.
	GC gcsched.Config
	// Fault arms the fault injector: a device failure mid-run, degraded
	// reads, throttled GC, and a bandwidth-stealing rebuild. The zero
	// value keeps the run healthy.
	Fault FaultConfig
}

// Result summarizes a prototype run. Times are modelled: the run's
// clock is virtual.
type Result struct {
	OpsPerSec float64
	// Elapsed runs from the first measured op until the device columns
	// have worked off every chunk the run sent.
	Elapsed       time.Duration
	WA            float64
	EffectiveWA   float64
	PaddingRatio  float64
	ChunksWritten int64
	ParityChunks  int64

	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64

	// P50, P99 and P999 are client-observed op latencies: from when a
	// client is ready to issue an op until the engine lock is released
	// after it.
	P50, P99, P999 time.Duration
	// Measured is the traffic of the measured run alone: the fill
	// excluded, the settling of in-flight background GC included.
	Measured Traffic
	// Pacer is the background-GC pacer's totals (zero without
	// BackgroundGC).
	Pacer gcsched.Stats
	// GC is GC's share of the measured run's clock and of its ops.
	GC GCShare

	// Fault-run accounting; FailedDevice is -1 when the run stayed
	// healthy and Phases is nil unless the injector was armed.
	FailedDevice  int
	FailedAtOp    int64
	DegradedReads int64
	RebuildChunks int64
	LostChunks    int64
	Phases        []PhaseStats
}

// GCShare attributes a run's latency to GC. A GC hold is a hold of the
// modelled engine lock in which the store did GC work: a synchronous
// cycle inside an op's hold, an emergency cycle, or a pacer slice. An op
// overlapped GC when a GC hold, up to and including its own, ended after
// the op became ready: it waited behind or ran one.
type GCShare struct {
	// Busy is the fraction of the measured run spent inside GC holds.
	Busy float64
	// Tail is the fraction of ops at or above the P999 that overlapped
	// GC, and All the same over every op: the gap between the two is
	// GC's excess share of the tail.
	Tail, All float64
}

// The modelled engine lock: every hold is charged one of these fixed
// costs, plus the relocation read of each GC block it moved (a chunk
// read spread over the chunk's blocks; the rewrite is a device send),
// plus the device-queue waits its sends computed.
const (
	// opCost is the critical section of one client op.
	opCost = 2 * time.Microsecond
	// sliceCost is the critical section of one background-GC slice.
	sliceCost = time.Microsecond
	// tailWindow is how many recent op latencies the pacer's tail signal
	// spans: a spike ages out after it, as in a windowed p999.
	tailWindow = 1024
)

// Run executes the prototype experiment: it builds the one-shard
// engine on a virtual clock, drives it with one event loop over the
// clients, the pacer's ticks and a fault run's rebuild, and closes it.
// The earliest client to be able to take the engine lock issues next
// (ties by index), at max(ready, lock free).
func Run(cfg Config) (Result, error) {
	if cfg.Clients < 1 {
		return Result{}, fmt.Errorf("prototype: need at least one client")
	}
	if cfg.Ops < 1 {
		return Result{}, fmt.Errorf("prototype: need at least one op")
	}
	if !(cfg.ReadRatio >= 0 && cfg.ReadRatio <= 1) {
		return Result{}, fmt.Errorf("prototype: read ratio %v outside [0,1]", cfg.ReadRatio)
	}
	if cfg.Think < 0 {
		return Result{}, fmt.Errorf("prototype: negative think time %v", cfg.Think)
	}
	if cfg.GC.QueueFill != nil || cfg.GC.P999 != nil {
		return Result{}, fmt.Errorf("prototype: GC.QueueFill and GC.P999 are Run's own signals")
	}
	geo := cfg.Engine.Store.GeometryDefaults()
	fr, err := newFaultRun(&cfg, geo.DataColumns+1)
	if err != nil {
		return Result{}, err
	}
	pol := cfg.Engine.Policy
	fr.registerTelemetry(cfg.Engine.Telemetry)
	l := &runLoop{fr: fr}
	devs := newDeviceArray(geo.DataColumns+1, cfg.Engine, &l.clock)
	devs.fault = fr
	devs.registerTelemetry(cfg.Engine.Telemetry)
	eng, err := newSharded(ShardedConfig{
		Engine:        cfg.Engine,
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return pol, nil },
	}, devs)
	if err != nil {
		return Result{}, err
	}
	l.e = eng.shards[0]
	l.perBlock = devs.readService / time.Duration(geo.ChunkBlocks)
	if p, ok := pol.(interface{ SetTelemetry(*telemetry.Set) }); ok && l.e.tel != nil {
		// One shard, one policy: its fixed instrument names cannot
		// collide, so Run wires what a multi-shard engine cannot — under
		// the shard's lock, since the policy's gauges read its state.
		p.SetTelemetry(l.e.tel)
	}
	if geo.BackgroundGC {
		gcfg := cfg.GC
		gcfg.QueueFill = devs.queueFill
		if gcfg.TargetP999 > 0 {
			gcfg.P999 = l.tailMax
		}
		if l.pacer, err = gcsched.New(gcfg, []gcsched.Shard{pacedShard{l.e, l}}); err != nil {
			eng.Close()
			return Result{}, err
		}
		l.interval = l.pacer.Interval()
	}

	measureStart := l.now()
	l.lockFree, l.nextTick = measureStart, measureStart+l.interval
	l.e.mu.Lock()
	base := trafficOf(l.e)
	if fr != nil {
		fr.enterPhaseLocked(l.e, PhaseHealthy)
	}
	l.e.mu.Unlock()
	l.clients = make([]client, cfg.Clients)
	for c := range l.clients {
		rng := sim.NewRNG(cfg.Seed + uint64(c)*7919)
		l.clients[c] = client{rng: rng, zipf: workload.NewZipf(rng, geo.UserBlocks, cfg.Theta, true), ready: measureStart}
	}
	err = l.run(&cfg)
	end := l.lockFree
	if fr != nil {
		end = max(end, fr.rebuildAt)
	}
	gcBusy := l.gcBusy // the settling below serves no op
	// Settle in-flight GC before the drain, so both GC modes account
	// whole cycles; phase accounting stops before it.
	for settled := l.pacer == nil || err != nil; !settled; {
		l.hold(end, sliceCost, func() { settled = l.e.GCStep(1 << 30) })
	}
	// Close drains the open chunks, then the clock advances until the
	// device columns are idle, so the elapsed time pays for every chunk
	// the run produced.
	l.advance(max(end, l.lockFree))
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	devs.drain()
	if err != nil {
		return Result{}, err
	}

	st := eng.Stats()
	res := Result{
		Elapsed:       l.now() - measureStart,
		WA:            st.WA,
		EffectiveWA:   st.EffectiveWA,
		PaddingRatio:  st.PaddingRatio,
		ChunksWritten: st.ChunkFlushes,
		ParityChunks:  st.ParityChunks,
		UserBlocks:    st.UserBlocks,
		GCBlocks:      st.GCBlocks,
		ShadowBlocks:  st.ShadowBlocks,
		PaddingBlocks: st.PaddingBlocks,
		FailedDevice:  -1,
	}
	if res.Elapsed > 0 {
		res.OpsPerSec = float64(cfg.Ops) / res.Elapsed.Seconds()
	}
	final := trafficOf(l.e) // the engine is closed: nothing else holds its lock
	res.Measured = final.since(base)
	if l.pacer != nil {
		res.Pacer = l.pacer.Stats()
	}
	var lats []float64
	for _, ops := range l.ops {
		lats = append(lats, latencies(ops)...)
	}
	slices.Sort(lats)
	res.P50 = time.Duration(stats.SortedPercentile(lats, 50))
	res.P99 = time.Duration(stats.SortedPercentile(lats, 99))
	res.P999 = time.Duration(stats.SortedPercentile(lats, 99.9))
	if span := end - measureStart; span > 0 {
		res.GC.Busy = float64(gcBusy) / float64(span)
	}
	var tail, tailGC, allGC int
	for _, ops := range l.ops {
		for _, o := range ops {
			if o.gc {
				allGC++
			}
			if o.lat >= res.P999 {
				tail++
				if o.gc {
					tailGC++
				}
			}
		}
	}
	if len(lats) > 0 {
		res.GC.Tail = float64(tailGC) / float64(tail)
		res.GC.All = float64(allGC) / float64(len(lats))
	}
	if fr != nil {
		fr.finish(&res, end, final, &l.ops)
	}
	return res, nil
}

// opSample is one op as Run records it: its latency, and whether it
// overlapped GC (see GCShare).
type opSample struct {
	lat time.Duration
	gc  bool
}

// latencies returns ops' latencies in nanoseconds, in order.
func latencies(ops []opSample) []float64 {
	lats := make([]float64, len(ops))
	for i, o := range ops {
		lats[i] = float64(o.lat)
	}
	return lats
}

// client is one closed-loop client of Run: its stream and when it is
// ready to issue its next op.
type client struct {
	rng   *sim.RNG
	zipf  *workload.Zipf
	ready time.Duration
}

// runLoop is Run's one event loop. Its clock is the device array's: the
// loop advances it to each event's start, and the array's sends advance
// it over their queue waits. It never runs backward: a tick or rebuild
// step due while an op's sends still wait starts when they are done (a
// waiting rebuild step leaves the clock where it found it).
type runLoop struct {
	clock    atomic.Int64
	e        *Engine // the run's one shard
	fr       *faultRun
	clients  []client
	perBlock time.Duration // relocation-read cost of one GC block
	lockFree time.Duration // when the modelled engine lock is next free

	pacer    *gcsched.Controller // nil without background GC
	interval time.Duration
	nextTick time.Duration
	cutoff   time.Duration // the waiting client's ready time: non-urgent slices yield past it

	ops [numPhases][]opSample // in issue order, by the phase they were issued in

	gcEnd  time.Duration // when the latest GC hold released the lock
	gcBusy time.Duration // the GC holds' total length
}

func (l *runLoop) now() time.Duration { return time.Duration(l.clock.Load()) }

// advance moves the clock to t unless it is already past it.
func (l *runLoop) advance(t time.Duration) { l.clock.Store(int64(max(t, l.now()))) }

// run issues cfg.Ops ops, interleaving the pacer's ticks and, in a fault
// run, the failure and every rebuild step; a rebuild still running, or
// not yet due, when the ops end runs to completion after them.
func (l *runLoop) run(cfg *Config) error {
	fr := l.fr
	for op := int64(1); ; {
		if op > cfg.Ops && fr != nil && fr.phase == PhaseDegraded {
			l.advance(l.lockFree)
			fr.startRebuild(l.e)
		}
		if op > cfg.Ops && !fr.rebuilding() {
			return nil
		}
		next := -1 // the client to issue op, or -1 once all ops are issued
		at := time.Duration(math.MaxInt64)
		l.cutoff = at
		if op <= cfg.Ops {
			next = 0
			for c := range l.clients {
				if l.clients[c].ready < l.clients[next].ready {
					next = c
				}
			}
			l.cutoff = l.clients[next].ready
			at = max(l.cutoff, l.lockFree)
		}
		if fr.rebuilding() {
			at = min(at, fr.rebuildAt)
		}
		if l.pacer != nil && l.nextTick <= at {
			l.tick()
			continue
		}
		if fr.rebuilding() && fr.rebuildAt == at {
			l.advance(at)
			fr.rebuildStep(l.e)
			continue
		}
		l.advance(at)
		if fr != nil && op == fr.failOp && fr.phase == PhaseHealthy {
			fr.fail(l.e)
		}
		if fr != nil && fr.phase == PhaseDegraded && op >= fr.failOp+fr.cfg.RebuildDelayOps {
			fr.startRebuild(l.e)
			continue // its first step goes before this op
		}
		p := PhaseHealthy
		if fr != nil {
			p = fr.phase
		}
		c := &l.clients[next]
		lba, do := c.zipf.Next(), l.e.WriteTimed
		if cfg.ReadRatio > 0 && c.rng.Float64() < cfg.ReadRatio {
			do = l.e.ReadTimed
		}
		var err error
		if l.hold(at, opCost, func() { _, err = do(lba, 1) }); err != nil {
			return err
		}
		l.ops[p] = append(l.ops[p], opSample{lat: l.lockFree - c.ready, gc: l.gcEnd > c.ready})
		c.ready = l.lockFree
		if cfg.Think > 0 {
			c.ready += time.Duration(float64(cfg.Think) * c.rng.ExpFloat64())
		}
		op++
	}
}

// hold runs fn as one hold of the modelled engine lock, from max(at,
// lock free), and moves lock free to its release: after fixed, the
// relocation read of every GC block fn moved, and the device-queue
// waits fn's sends advanced the clock by. A hold in which the store did
// GC work is a GC hold (see GCShare). The loop is the store's only
// writer, so it reads the GC counts unlocked.
func (l *runLoop) hold(at, fixed time.Duration, fn func()) {
	l.advance(max(at, l.lockFree))
	start, m := l.now(), l.e.store.Metrics()
	gc0, work0 := m.GCBlocks, gcWork(m)
	fn()
	l.lockFree = l.now() + fixed + time.Duration(m.GCBlocks-gc0)*l.perBlock
	if gcWork(m) != work0 {
		l.gcEnd = l.lockFree
		l.gcBusy += l.lockFree - start
	}
}

// gcWork counts the store's GC executions: every cycle start, pacer
// slice and emergency cycle.
func gcWork(m *lss.Metrics) int64 { return m.GCCycles + m.GCSlices + m.GCEmergencyRuns }

// tick runs the pacer's tick due at nextTick. A waiting client does not
// stop it, as it does not stop the served pacer; pacedShard yields only
// the non-urgent slices to that client. Ticks that fall due while the
// pacer waits for or holds the lock are dropped, as a time.Ticker drops
// them for a busy receiver.
func (l *runLoop) tick() {
	l.advance(l.nextTick)
	busy, held := l.now(), l.lockFree
	if l.pacer.Tick(); l.lockFree != held { // a slice held the lock
		busy = l.lockFree
	}
	for l.nextTick <= busy {
		l.nextTick += l.interval
	}
}

// tailMax is the pacer's tail signal: the largest latency of the last
// tailWindow ops, which lie at the ends of the latest phases.
func (l *runLoop) tailMax() time.Duration {
	var m time.Duration
	for p, n := numPhases-1, tailWindow; p >= 0 && n > 0; p-- {
		ops := l.ops[p][max(0, len(l.ops[p])-n):]
		for _, o := range ops {
			m = max(m, o.lat)
		}
		n -= len(ops)
	}
	return m
}

// pacedShard is Run's shard as the pacer sees it: each slice is a hold
// of the modelled engine lock from the tick. A non-urgent slice yields
// once a client waits for the lock; an urgent one (below the low
// watermark) runs, and the client waits behind it.
type pacedShard struct {
	*Engine
	l *runLoop
}

func (p pacedShard) GCStep(budget int) (done bool) {
	if p.l.lockFree >= p.l.cutoff && p.GCUrgency() < 1 {
		return true
	}
	p.l.hold(p.l.now(), sliceCost, func() { done = p.Engine.GCStep(budget) })
	return done
}

// FootprintReporter is implemented by policies that can report their
// metadata memory cost.
type FootprintReporter interface {
	Footprint() int64
}

// Footprint returns a policy's reported metadata bytes, or 0 if the
// policy does not report one.
func Footprint(p lss.Policy) int64 {
	if f, ok := p.(FootprintReporter); ok {
		return f.Footprint()
	}
	return 0
}
