package prototype

import (
	"fmt"
	"sync"
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
	// RebuildBurst is how many chunks each rebuild round pushes through
	// the device queues before re-checking the watermark (default 8).
	RebuildBurst int
	// QueueTimeout bounds one queue-send attempt before it counts as a
	// retry (default 2ms).
	QueueTimeout time.Duration
	// RetryMax is how many timed-out attempts precede the final
	// blocking send; operations are never dropped (default 5).
	RetryMax int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between retries (defaults 50µs / 5ms, see fault.Backoff).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DegradedGCWatermark is the rebuild-progress fraction below which
	// the store runs throttled degraded-mode GC. Zero takes the default
	// 0.5; must be at most 1.
	DegradedGCWatermark float64
}

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
	switch p {
	case PhaseHealthy:
		return "healthy"
	case PhaseDegraded:
		return "degraded"
	case PhaseRebuilding:
		return "rebuilding"
	case PhaseRebuilt:
		return "rebuilt"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
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
	// P99 is the 99th-percentile client-observed op latency: the time
	// from op start to the store accepting the write (or read) and its
	// chunk traffic entering the device queues.
	P99 time.Duration
}

// trafficSnap is the part of the store metrics a phase boundary needs.
type trafficSnap struct {
	user, gc int64
}

// setDegraded flips the shard store's degraded-mode GC. Caller holds
// e.mu.
func setDegraded(e *Engine, v bool) {
	e.store.Reconfigure(func(r *lss.Runtime) { r.Degraded = v })
}

// faultRun is the per-run state of Run's fault injector. It owns no
// devices and no lock: it rides the engine's device array as its fault
// hook (deviceArray.send and read consult it per job) and does its
// phase bookkeeping under the lock of the run's one shard. A nil
// *faultRun is a healthy array: every probe reports "no failure".
type faultRun struct {
	cfg     FaultConfig
	backoff fault.Backoff

	failDev int
	failOp  int64

	// phase is the lifecycle stage, written only inside enterPhaseLocked
	// (under the shard lock) and read lock-free by clients and the
	// array's send path.
	phase atomic.Int32

	// colChunks counts the log chunks placed on each column. Atomic: the
	// array is shared hardware, so the count must not lean on any one
	// shard's lock.
	colChunks []atomic.Int64

	// Guarded by the shard lock:
	rebuildTotal int64 // colChunks[failDev] frozen at failure
	entered      [numPhases]bool
	startT       [numPhases]time.Time
	snaps        [numPhases]trafficSnap

	rebuildClaimed atomic.Bool

	degReads atomic.Int64
	lost     atomic.Int64
	rebuilt  atomic.Int64
	retries  atomic.Int64

	tracer    *telemetry.Tracer
	retryHist *telemetry.Histogram

	// collectMu guards the merged per-phase latency samples and op
	// counts that clients contribute when they finish.
	collectMu sync.Mutex
	latNS     [numPhases][]float64
	phaseOps  [numPhases]int64
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
	if f.DegradedGCWatermark < 0 || f.DegradedGCWatermark > 1 {
		return nil, fmt.Errorf("prototype: degraded GC watermark %v outside [0,1]", f.DegradedGCWatermark)
	}
	if f.DegradedGCWatermark == 0 {
		f.DegradedGCWatermark = 0.5
	}
	if f.RebuildBurst < 1 {
		f.RebuildBurst = 8
	}
	if f.QueueTimeout <= 0 {
		f.QueueTimeout = 2 * time.Millisecond
	}
	if f.RetryMax < 1 {
		f.RetryMax = 5
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
		backoff:   fault.Backoff{Base: f.BackoffBase, Cap: f.BackoffCap},
		failDev:   failDev,
		failOp:    failOp,
		colChunks: make([]atomic.Int64, ncols),
	}, nil
}

// registerTelemetry exposes the injector's counters and the retry
// histogram on the run's registry.
func (fr *faultRun) registerTelemetry(ts *telemetry.Set) {
	if fr == nil || ts == nil {
		return
	}
	fr.tracer = ts.Tracer
	reg := ts.Registry
	reg.NewFuncGauge(telemetry.MetricDegradedReads,
		"Reads served by XOR reconstruction fan-out", true,
		func() int64 { return fr.degReads.Load() })
	reg.NewFuncGauge(telemetry.MetricRebuildChunks,
		"Chunks the rebuild pushed through the device queues", true,
		func() int64 { return fr.rebuilt.Load() })
	reg.NewFuncGauge(telemetry.MetricLostChunks,
		"Chunk writes dropped on the failed column", true,
		func() int64 { return fr.lost.Load() })
	reg.NewFuncGauge(telemetry.MetricQueueRetries,
		"Queue sends that timed out and retried after backoff", true,
		func() int64 { return fr.retries.Load() })
	fr.retryHist = reg.NewHistogram(telemetry.MetricRetryHistogram,
		"Retries per dispatched device operation", []int64{0, 1, 2, 4, 8})
}

// failureActive reports whether the failed column is currently
// unavailable (failed and not yet fully rebuilt). Nil-safe.
func (fr *faultRun) failureActive() bool {
	if fr == nil {
		return false
	}
	p := Phase(fr.phase.Load())
	return p == PhaseDegraded || p == PhaseRebuilding
}

// degradedTarget reports whether a read aimed at col must fan out to
// the survivors. Nil-safe.
func (fr *faultRun) degradedTarget(col int) bool {
	return fr.failureActive() && col == fr.failDev
}

// enterPhaseLocked records a phase boundary: traffic snapshot, wall
// time, and the lock-free phase flag. Caller holds e.mu.
func (fr *faultRun) enterPhaseLocked(e *Engine, p Phase) {
	m := e.store.Metrics()
	fr.snaps[p] = trafficSnap{user: m.UserBlocks, gc: m.GCBlocks}
	fr.startT[p] = time.Now()
	fr.entered[p] = true
	fr.phase.Store(int32(p))
}

// fail fires the planned failure: freezes the rebuild total, flips the
// shard store into degraded-mode GC, and enters PhaseDegraded. Exactly
// one client calls it (the one whose op counter hits failOp).
func (fr *faultRun) fail(e *Engine) {
	e.mu.Lock()
	fr.rebuildTotal = fr.colChunks[fr.failDev].Load()
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
	fr.colChunks[col].Add(1)
	return true
}

// attempts paces a job sent at now whose queue slot opens at open: each
// attempt waits at most QueueTimeout, a timed-out one counts a retry and
// backs off, and after RetryMax the sender waits unbounded. The job
// enters when the slot opens in an attempt, or when the next one starts.
func (fr *faultRun) attempts(now, open time.Duration) (enter time.Duration) {
	var retries int64
	for open > now+fr.cfg.QueueTimeout && retries < int64(fr.cfg.RetryMax) {
		now += fr.cfg.QueueTimeout
		retries++
		if retries < int64(fr.cfg.RetryMax) {
			now += fr.backoff.Delay(int(retries) - 1)
		}
	}
	fr.retries.Add(retries)
	fr.retryHist.Observe(retries)
	return max(open, now)
}

// claimRebuild reports whether the caller runs the rebuild: the first
// client to find the failure fired and the op delay elapsed at op, or,
// once the clients are done, whoever finds the failure fired. A client
// runs it, so it starts on time however the scheduler treats a waiter.
func (fr *faultRun) claimRebuild(op int64, clientsDone bool) bool {
	due := clientsDone || op >= fr.failOp+fr.cfg.RebuildDelayOps
	return due && fr.phase.Load() >= int32(PhaseDegraded) && fr.rebuildClaimed.CompareAndSwap(false, true)
}

// rebuild walks the failed column chunk by chunk, issuing one
// reconstruction read on every surviving column plus the spare write
// through the same bounded queues user traffic uses — rebuild I/O
// steals real modelled bandwidth, and the spare, a fresh device, has
// none banked. Once progress passes the watermark the store leaves
// degraded-mode GC; completion enters PhaseRebuilt.
func (fr *faultRun) rebuild(e *Engine) {
	da := e.devs
	e.mu.Lock()
	total := fr.rebuildTotal
	fr.enterPhaseLocked(e, PhaseRebuilding)
	e.mu.Unlock()
	fr.tracer.Emit(telemetry.RebuildStart(e.Now(), fr.failDev, total))

	da.cols[fr.failDev].replace(time.Since(da.start))
	var blockedNS int64 // no client op to charge the rebuild's queue waits to
	cleared := false
	var done int64
	for done < total {
		n := int64(fr.cfg.RebuildBurst)
		if total-done < n {
			n = total - done
		}
		for i := int64(0); i < n; i++ {
			for col := range da.cols {
				if col != fr.failDev {
					da.read(col, &blockedNS)
				}
			}
			da.send(fr.failDev, chunkJob{spare: true}, &blockedNS)
		}
		done += n
		fr.rebuilt.Add(n)
		if !cleared && float64(done) >= fr.cfg.DegradedGCWatermark*float64(total) {
			e.mu.Lock()
			setDegraded(e, false)
			e.mu.Unlock()
			cleared = true
		}
	}
	e.mu.Lock()
	setDegraded(e, false)
	fr.enterPhaseLocked(e, PhaseRebuilt)
	e.mu.Unlock()
	fr.tracer.Emit(telemetry.RebuildEnd(e.Now(), fr.failDev, total))
}

// collect merges one client's per-phase latency samples and op counts.
func (fr *faultRun) collect(latNS [numPhases][]float64, ops [numPhases]int64) {
	fr.collectMu.Lock()
	for p := range latNS {
		fr.latNS[p] = append(fr.latNS[p], latNS[p]...)
		fr.phaseOps[p] += ops[p]
	}
	fr.collectMu.Unlock()
}

// finish folds the injector's accounting into the run result: the
// per-phase throughput/WA/P99 table and the fault counters.
func (fr *faultRun) finish(res *Result, end time.Time, endSnap trafficSnap) {
	res.FailedDevice = fr.failDev
	res.FailedAtOp = fr.failOp
	res.DegradedReads = fr.degReads.Load()
	res.RebuildChunks = fr.rebuilt.Load()
	res.LostChunks = fr.lost.Load()
	res.QueueRetries = fr.retries.Load()
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
			Ops:     fr.phaseOps[p],
			Elapsed: stop.Sub(fr.startT[p]),
		}
		if ps.Elapsed > 0 {
			ps.OpsPerSec = float64(ps.Ops) / ps.Elapsed.Seconds()
		}
		if du := snap.user - fr.snaps[p].user; du > 0 {
			ps.WA = float64(du+snap.gc-fr.snaps[p].gc) / float64(du)
		} else {
			ps.WA = 1
		}
		if samples := fr.latNS[p]; len(samples) > 0 {
			ps.P99 = time.Duration(stats.Percentile(samples, 99))
		}
		res.Phases = append(res.Phases, ps)
	}
}
