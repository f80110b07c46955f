package harness

import (
	"fmt"
	"math"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/workload"
)

// The modelled half of the gcsched experiment: a deterministic
// virtual-clock replay of the same sync-versus-background comparison
// the live serving stack runs in wall time. The stores and the pacer
// are the real implementations — real watermark triggers, real victim
// selection, real micro-slice pacing, real emergency floor — only the
// clock and the engine lock are modelled, so the tail numbers are
// exactly reproducible instead of riding on host scheduling noise.
//
// The lock model is a single server: ops and GC slices serialize on
// it in virtual time. The only GC cost charged inline is the honest
// one — the chunk *read* half of each relocation (the rewritten chunk
// is dispatched to a device queue asynchronously, exactly as the
// prototype engine does), plus a fixed per-op critical section. A
// synchronous watermark cycle therefore stalls the triggering op (and
// everything queued behind it) for its whole relocation read bill,
// while a paced run bounds any single lock hold to one micro-slice:
// the pacer yields the lock as soon as an op arrives.

// gcModel is the shared virtual-clock state the pacer's shard wrapper
// needs to charge its slices against.
type gcModel struct {
	busy    sim.Time // lock free-at cursor
	tickAt  sim.Time // virtual time of the tick being processed
	cutoff  sim.Time // next op arrival: slices past this yield
	perUnit sim.Time // inline cost of one relocation work unit
	epsilon sim.Time // cost of a slice that only scanned
}

// modelShard adapts a real store to gcsched.Shard, advancing the
// virtual lock cursor by the relocation work each micro-slice did.
type modelShard struct {
	store *lss.Store
	m     *gcModel
}

func (ms *modelShard) GCNeeded() bool     { return ms.store.GCNeeded() }
func (ms *modelShard) GCUrgency() float64 { return ms.store.GCUrgency() }
func (ms *modelShard) GCStep(budget int) bool {
	// An op has arrived and the lock cursor already covers it: yield
	// the rest of this tick's budget (the Gosched in the pacer loop).
	// Urgent slices don't yield — the real pacer completes its whole
	// urgency-scaled budget with writers interleaving between
	// micro-slices, and below the low watermark that budget is the only
	// thing standing between the writers and an emergency cycle.
	if ms.m.busy >= ms.m.cutoff && ms.store.GCUrgency() < 1 {
		return true
	}
	before := ms.store.Metrics().GCBlocks
	done := ms.store.GCStep(budget)
	moved := ms.store.Metrics().GCBlocks - before
	start := ms.m.tickAt
	if ms.m.busy > start {
		start = ms.m.busy
	}
	cost := ms.m.epsilon
	if moved > 0 {
		cost = sim.Time(moved) * ms.m.perUnit
	}
	ms.m.busy = start + cost
	return done
}

// runGCSchedModel replays one (policy, mode) cell on the virtual
// clock and returns the same row shape as the live run.
func runGCSchedModel(sc Scale, polName string, opts GCSchedOptions, background bool) (GCSchedRow, error) {
	cfg := StoreConfig(opts.Blocks, 0)
	cfg.BackgroundGC = background
	pol, err := BuildPolicy(polName, cfg)
	if err != nil {
		return GCSchedRow{}, err
	}
	store := lss.New(cfg, pol)

	// Inline relocation cost: the chunk read of each relocated chunk,
	// amortized per block; the rewrite is an async device dispatch.
	readService := sim.Time(opts.ServiceTime.Nanoseconds()) / 2
	m := &gcModel{
		perUnit: readService / sim.Time(cfg.ChunkBlocks),
		epsilon: sim.Time(1 * time.Microsecond),
	}
	const opBase = sim.Time(2 * time.Microsecond) // per-op critical section
	interval := sim.Time(opts.Interval.Nanoseconds())
	sliceStep := opts.SliceUnits

	// chargeWrite runs one user write and returns its inline cost:
	// the critical section plus any GC the store ran inside the call —
	// a synchronous watermark cycle, or the emergency floor under
	// background pacing. Both are measured off the real metrics.
	chargeWrite := func(lba int64, now sim.Time) (sim.Time, error) {
		before := store.Metrics().GCBlocks
		if err := store.WriteBlock(lba, now); err != nil {
			return 0, err
		}
		cost := opBase
		if moved := store.Metrics().GCBlocks - before; moved > 0 {
			cost += sim.Time(moved) * m.perUnit
		}
		return cost, nil
	}

	// Fill sequentially so GC is live from the first measured op,
	// pacing the background store the way the prototype's fill loop
	// does.
	now := sim.Time(0)
	for lba := int64(0); lba < opts.Blocks; lba++ {
		if _, err := chargeWrite(lba, now); err != nil {
			return GCSchedRow{}, fmt.Errorf("fill: %w", err)
		}
		if background {
			store.GCStep(sliceStep)
		}
		now += sim.Time(time.Microsecond)
	}
	base := *store.Metrics() // measured-phase baseline (copy)

	// The pacer over the model shard. Its tail signal is the max over a
	// sliding window of recent op latencies — the deterministic analogue
	// of the serving layer's windowed p999: spikes age out after the
	// window instead of lingering, and the signal is honest about
	// feedback lag.
	var ctl *gcsched.Controller
	const tailWindow = 1024
	tailRing := make([]float64, 0, tailWindow)
	tailAt := 0
	tailEst := float64(0)
	recordTail := func(lat float64) {
		if len(tailRing) < tailWindow {
			tailRing = append(tailRing, lat)
		} else {
			tailRing[tailAt] = lat
			tailAt = (tailAt + 1) % tailWindow
		}
		if lat >= tailEst {
			tailEst = lat
			return
		}
		// The previous max may have aged out; recompute lazily only then.
		tailEst = 0
		for _, l := range tailRing {
			if l > tailEst {
				tailEst = l
			}
		}
	}
	if background {
		gcfg := gcsched.Config{
			Interval:   opts.Interval,
			SliceUnits: opts.SliceUnits,
		}
		if opts.TargetP999 > 0 {
			gcfg.TargetP999 = opts.TargetP999
			gcfg.P999 = func() time.Duration { return time.Duration(tailEst) }
		}
		ctl, err = gcsched.New(gcfg, []gcsched.Shard{&modelShard{store: store, m: m}})
		if err != nil {
			return GCSchedRow{}, err
		}
	}

	// Closed-loop workers on the virtual clock.
	nWorkers := opts.Tenants * opts.Workers
	think := float64(opts.ThinkTime.Nanoseconds())
	rng := sim.NewRNG(sc.Seed ^ 0x9c5ced)
	zipf := workload.NewZipf(rng, opts.Blocks, opts.Theta, true)
	arrival := make([]sim.Time, nWorkers)
	for w := range arrival {
		arrival[w] = now + sim.Time(w)*sim.Time(50*time.Microsecond)
	}
	m.busy = now
	nextTick := now + interval
	totalOps := nWorkers * opts.OpsPerWorker
	lats := make([]float64, 0, totalOps)
	for len(lats) < totalOps {
		// Next arrival across the closed loop.
		w := 0
		for i := 1; i < nWorkers; i++ {
			if arrival[i] < arrival[w] {
				w = i
			}
		}
		at := arrival[w]
		// Run the pacer ticks due before this op. A tick whose slices
		// already pushed the lock cursor past the arrival yields (the
		// op holds the next lock acquisition).
		if ctl != nil {
			m.cutoff = at
			for nextTick <= at {
				m.tickAt = nextTick
				if m.busy < at {
					ctl.Tick()
				}
				nextTick += interval
			}
		}
		start := at
		if m.busy > start {
			start = m.busy
		}
		var cost sim.Time
		if rng.Float64() < opts.WriteFrac {
			c, err := chargeWrite(zipf.Next(), start)
			if err != nil {
				return GCSchedRow{}, err
			}
			cost = c
		} else {
			store.Read(zipf.Next(), 1, start)
			cost = opBase
		}
		m.busy = start + cost
		lat := float64(m.busy - at)
		lats = append(lats, lat)
		recordTail(lat)
		gap := float64(0) // exponential think gap
		if think > 0 {
			gap = think * expDraw(rng)
		}
		arrival[w] = m.busy + sim.Time(gap)
	}
	// Settle the in-flight cycle so both modes account whole cycles.
	if background {
		for store.GCActive() {
			store.GCStep(1 << 30)
		}
	}

	mt := store.Metrics()
	return gcschedRow(polName, ctl, lats, gcCounts{
		mt.UserBlocks - base.UserBlocks, mt.GCBlocks - base.GCBlocks,
		mt.GCCycles - base.GCCycles, mt.GCSlices - base.GCSlices, mt.GCEmergencyRuns - base.GCEmergencyRuns,
	}), nil
}

// expDraw is a unit-mean exponential draw.
func expDraw(rng *sim.RNG) float64 {
	u := rng.Float64()
	if u >= 1 {
		u = 0.9999999
	}
	return -math.Log(1 - u)
}
