package prototype

import (
	"fmt"
	"sync/atomic"
	"time"

	"adapt/internal/fault"
	"adapt/internal/lss"
	"adapt/internal/stats"
	"adapt/internal/telemetry"
)

// FaultConfig arms the prototype's fault injector. The zero value
// disables it; setting FailAtOp (with FailDevice) schedules one
// deterministic failure, setting MTBFOps instead draws the failure
// from a seeded exponential schedule over the run's op horizon.
type FaultConfig struct {
	// FailDevice is the array column to fail (0-based, parity column
	// included) when FailAtOp is set.
	FailDevice int
	// FailAtOp fires the failure when the measured user-op counter
	// reaches this value (first op = 1). Zero disables the fixed plan.
	FailAtOp int64
	// MTBFOps, when positive, replaces the fixed plan with a seeded
	// exponential failure schedule with this mean (in ops); the first
	// event inside the run's op horizon becomes the failure. A schedule
	// with no event inside the horizon leaves the run healthy.
	MTBFOps int64
	// RebuildDelayOps is how many further user ops pass between the
	// failure and the start of the rebuild (detection + spare swap-in
	// time, expressed in load units so it scales with the run).
	RebuildDelayOps int64
	// RebuildBurst bounds the chunks one rebuild step sends before Run's
	// other events get a turn (default 8); a send that must wait ends it.
	RebuildBurst int
}

// degradedGCWatermark is the rebuild-progress fraction below which the
// store runs throttled degraded-mode GC.
const degradedGCWatermark = 0.5

// Enabled reports whether the injector is armed.
func (f FaultConfig) Enabled() bool { return f.FailAtOp > 0 || f.MTBFOps > 0 }

// Phase is one stage of a fault run's lifecycle.
type Phase int

// Fault-run phases in order.
const (
	PhaseHealthy Phase = iota
	PhaseDegraded
	PhaseRebuilding
	PhaseRebuilt
	numPhases
)

// String names the phase as used in experiment tables.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return [numPhases]string{"healthy", "degraded", "rebuilding", "rebuilt"}[p]
}

// PhaseStats summarizes one phase of a fault run.
type PhaseStats struct {
	Phase     Phase
	Ops       int64
	Elapsed   time.Duration
	OpsPerSec float64
	// WA is the write amplification of traffic issued during the phase
	// (delta of user+GC blocks over delta of user blocks).
	WA float64
	// P99 is the 99th-percentile client-observed op latency (see
	// Result.P99).
	P99 time.Duration
}

// Traffic is the store traffic a span of a run produced: user and
// GC-relocated blocks, GC cycles, paced slices and emergency cycles.
type Traffic struct {
	UserBlocks, GCBlocks, GCCycles, GCSlices, GCEmergencyRuns int64
}

// trafficOf snapshots the shard store's cumulative traffic. Caller holds
// e.mu.
func trafficOf(e *Engine) Traffic {
	m := e.store.Metrics()
	return Traffic{m.UserBlocks, m.GCBlocks, m.GCCycles, m.GCSlices, m.GCEmergencyRuns}
}

// since is t less an earlier snapshot.
func (t Traffic) since(base Traffic) Traffic {
	return Traffic{
		t.UserBlocks - base.UserBlocks, t.GCBlocks - base.GCBlocks, t.GCCycles - base.GCCycles,
		t.GCSlices - base.GCSlices, t.GCEmergencyRuns - base.GCEmergencyRuns,
	}
}

// WA is the write amplification of the span, 1 without user traffic.
func (t Traffic) WA() float64 {
	if t.UserBlocks <= 0 {
		return 1
	}
	return float64(t.UserBlocks+t.GCBlocks) / float64(t.UserBlocks)
}

// setDegraded flips the shard store's degraded-mode GC. Caller holds
// e.mu.
func setDegraded(e *Engine, v bool) {
	e.store.Reconfigure(func(r *lss.Runtime) { r.Degraded = v })
}

// faultRun is the per-run state of Run's fault injector. It owns no
// devices and no lock: it rides Run's device array as its fault
// hook (deviceArray.send and read consult it per job), Run's loop
// drives its failure and rebuild, and it does its phase bookkeeping
// under the lock of the run's one shard. A nil *faultRun is a healthy
// array: every probe reports "no failure".
type faultRun struct {
	cfg FaultConfig

	failDev int
	failOp  int64

	// phase is the lifecycle stage, entered only by enterPhaseLocked.
	phase Phase

	// colChunks counts the log chunks placed on each column.
	colChunks []int64

	rebuildTotal int64 // colChunks[failDev] frozen at failure
	entered      [numPhases]bool
	startT       [numPhases]time.Duration
	snaps        [numPhases]Traffic

	// The rebuild's progress beside rebuilt: when it next sends, the
	// current chunk's next send (one read per surviving column, then
	// the spare write), and whether degraded-mode GC has been cleared.
	rebuildAt   time.Duration
	rebuildSend int
	cleared     bool

	// Read at scrape time by the registry's function gauges.
	degReads atomic.Int64
	lost     atomic.Int64
	rebuilt  atomic.Int64

	tracer *telemetry.Tracer
}

// newFaultRun validates the fault configuration and resolves the
// failure plan to a single (device, op) pair. It returns (nil, nil)
// when the injector is disabled or the MTBF schedule stays quiet
// within the run's horizon.
func newFaultRun(cfg *Config, ncols int) (*faultRun, error) {
	f := cfg.Fault
	if !f.Enabled() {
		return nil, nil
	}
	if f.RebuildBurst < 1 {
		f.RebuildBurst = 8
	}
	if f.RebuildDelayOps < 0 {
		return nil, fmt.Errorf("prototype: negative rebuild delay %d", f.RebuildDelayOps)
	}
	var failDev int
	var failOp int64
	if f.MTBFOps > 0 {
		// Offset the seed so the failure draw is independent of the
		// clients' zipfian streams.
		plan := fault.MTBF(cfg.Seed+0x9e3779b97f4a7c15, f.MTBFOps, ncols, cfg.Ops)
		ev, ok := plan.Next()
		if !ok {
			return nil, nil
		}
		failDev, failOp = ev.Device, ev.Op
	} else {
		failDev, failOp = f.FailDevice, f.FailAtOp
		if failDev < 0 || failDev >= ncols {
			return nil, fmt.Errorf("prototype: fail device %d outside array of %d columns", failDev, ncols)
		}
		if failOp > cfg.Ops {
			return nil, fmt.Errorf("prototype: fail op %d beyond run of %d ops", failOp, cfg.Ops)
		}
	}
	return &faultRun{
		cfg:       f,
		failDev:   failDev,
		failOp:    failOp,
		colChunks: make([]int64, ncols),
	}, nil
}

// registerTelemetry exposes the injector's counters on the run's
// registry.
func (fr *faultRun) registerTelemetry(ts *telemetry.Set) {
	if fr == nil || ts == nil {
		return
	}
	fr.tracer = ts.Tracer
	reg := ts.Registry
	for _, g := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{telemetry.MetricDegradedReads, "Reads served by XOR reconstruction fan-out", &fr.degReads},
		{telemetry.MetricRebuildChunks, "Chunks the rebuild pushed through the device queues", &fr.rebuilt},
		{telemetry.MetricLostChunks, "Chunk writes dropped on the failed column", &fr.lost},
	} {
		reg.NewFuncGauge(g.name, g.help, true, g.v.Load)
	}
}

// failureActive reports whether the failed column is currently
// unavailable (failed and not yet fully rebuilt). Nil-safe.
func (fr *faultRun) failureActive() bool {
	return fr != nil && (fr.phase == PhaseDegraded || fr.phase == PhaseRebuilding)
}

// degradedTarget reports whether a read aimed at col must fan out to
// the survivors. Nil-safe.
func (fr *faultRun) degradedTarget(col int) bool {
	return fr.failureActive() && col == fr.failDev
}

// enterPhaseLocked records a phase boundary: traffic snapshot and the
// array's clock. Caller holds e.mu.
func (fr *faultRun) enterPhaseLocked(e *Engine, p Phase) {
	fr.snaps[p] = trafficOf(e)
	fr.startT[p] = e.devs.elapsed()
	fr.entered[p] = true
	fr.phase = p
}

// fail fires the planned failure: freezes the rebuild total, flips the
// shard store into degraded-mode GC, and enters PhaseDegraded. Run's
// loop calls it before issuing op failOp.
func (fr *faultRun) fail(e *Engine) {
	e.mu.Lock()
	fr.rebuildTotal = fr.colChunks[fr.failDev]
	setDegraded(e, true)
	fr.enterPhaseLocked(e, PhaseDegraded)
	e.mu.Unlock()
	fr.tracer.Emit(telemetry.DeviceFailed(e.Now(), fr.failDev, fr.failOp))
}

// admit is the injector's say over one job deviceArray.send is about to
// queue on col. Reads and the rebuild's spare writes always pass. A log
// chunk aimed at the failed column while the failure is active is
// dropped and counted lost (on a real array its content is implied by
// parity; here the spare takes post-failure rows directly, so they
// never enter the rebuild); every other log chunk is counted against
// its column.
func (fr *faultRun) admit(col int, job chunkJob) bool {
	if job.read || job.spare {
		return true
	}
	if col == fr.failDev && fr.failureActive() {
		fr.lost.Add(1)
		return false
	}
	fr.colChunks[col]++
	return true
}

// rebuilding reports whether the rebuild is under way. Nil-safe.
func (fr *faultRun) rebuilding() bool { return fr != nil && fr.phase == PhaseRebuilding }

// startRebuild swaps the spare in at the array's clock and enters
// PhaseRebuilding; Run's loop then runs the rebuild (rebuildStep).
func (fr *faultRun) startRebuild(e *Engine) {
	e.mu.Lock()
	fr.enterPhaseLocked(e, PhaseRebuilding)
	e.mu.Unlock()
	fr.tracer.Emit(telemetry.RebuildStart(e.Now(), fr.failDev, fr.rebuildTotal))
	fr.rebuildAt = e.devs.elapsed()
	e.devs.cols[fr.failDev].replace(fr.rebuildAt)
}

// rebuildStep sends the failed column's chunks from the array's clock —
// per chunk a read on every survivor, then the spare write — through the
// queues user traffic uses; the spare, a fresh device, has no banked
// credit. It stops after RebuildBurst chunks, or at the first send that
// must wait: that job holds its queue place, the rebuild resumes when it
// enters (rebuildAt), and the clock goes back to the step's start, so
// the clients run meanwhile. Past the watermark the store leaves
// degraded-mode GC; completion enters PhaseRebuilt.
func (fr *faultRun) rebuildStep(e *Engine) {
	da := e.devs
	start := da.elapsed()
	fr.rebuildAt = start
	for chunks := 0; ; {
		if fr.rebuildSend == len(da.cols) { // the chunk's spare write has entered
			fr.rebuildSend = 0
			chunks++
			done := fr.rebuilt.Add(1)
			if !fr.cleared && float64(done) >= degradedGCWatermark*float64(fr.rebuildTotal) {
				e.mu.Lock()
				setDegraded(e, false)
				e.mu.Unlock()
				fr.cleared = true
			}
		}
		if fr.rebuilt.Load() >= fr.rebuildTotal {
			e.mu.Lock()
			setDegraded(e, false)
			fr.enterPhaseLocked(e, PhaseRebuilt)
			e.mu.Unlock()
			fr.tracer.Emit(telemetry.RebuildEnd(e.Now(), fr.failDev, fr.rebuildTotal))
			return
		}
		if chunks == fr.cfg.RebuildBurst {
			return
		}
		var waited int64
		if k := fr.rebuildSend; k == len(da.cols)-1 {
			da.send(fr.failDev, chunkJob{spare: true}, &waited)
		} else {
			if k >= fr.failDev {
				k++ // the reads skip the failed column
			}
			da.read(k, &waited)
		}
		fr.rebuildSend++
		if waited > 0 {
			fr.rebuildAt = da.elapsed()
			da.clock.Store(int64(start))
			return
		}
	}
}

// finish folds the injector's accounting into the run result: the
// per-phase throughput/WA/P99 table from the loop's per-phase
// latencies, and the fault counters.
func (fr *faultRun) finish(res *Result, end time.Duration, endSnap Traffic, latNS *[numPhases][]float64) {
	res.FailedDevice = fr.failDev
	res.FailedAtOp = fr.failOp
	res.DegradedReads = fr.degReads.Load()
	res.RebuildChunks = fr.rebuilt.Load()
	res.LostChunks = fr.lost.Load()
	for p := Phase(0); p < numPhases; p++ {
		if !fr.entered[p] {
			continue
		}
		stop, snap := end, endSnap
		for q := p + 1; q < numPhases; q++ {
			if fr.entered[q] {
				stop, snap = fr.startT[q], fr.snaps[q]
				break
			}
		}
		ps := PhaseStats{
			Phase:   p,
			Ops:     int64(len(latNS[p])),
			Elapsed: stop - fr.startT[p],
			WA:      snap.since(fr.snaps[p]).WA(),
		}
		if ps.Elapsed > 0 {
			ps.OpsPerSec = float64(ps.Ops) / ps.Elapsed.Seconds()
		}
		if samples := latNS[p]; len(samples) > 0 {
			ps.P99 = time.Duration(stats.Percentile(samples, 99))
		}
		res.Phases = append(res.Phases, ps)
	}
}
