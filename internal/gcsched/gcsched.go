// Package gcsched paces background garbage collection. The stores run
// with lss.Config.BackgroundGC, so watermark pressure no longer runs a
// stop-the-world cycle inline with an allocation; instead a single
// controller goroutine buys bounded slices of relocation work from the
// neediest shard, backing off while the serving layer's live tail
// latency or the device queues say foreground traffic needs the
// columns more.
//
// Three live signals drive each decision:
//
//   - urgency: each shard's distance to its GC watermarks
//     (0 at the high watermark, 1 at the low one). The neediest shard
//     is scheduled; the slice budget scales with its urgency.
//   - device queue fill: the most backlogged column's bounded sink
//     queue. A nearly full queue means GC chunk writes would displace
//     foreground flushes head-on, so non-urgent slices wait.
//   - serving-layer p999: a windowed tail quantile from the request
//     tracer. While it exceeds the target, non-urgent slices wait.
//
// The controller is deliberately serial: one slice anywhere in the
// system at a time, so no two shards relocate simultaneously and no
// stripe ever sees two GC-busy columns — the background-mode
// replacement for the synchronous path's one-token cross-shard gate.
// Correctness never depends on the pacer: if it falls behind (or never
// runs), each store runs an emergency synchronous cycle when its free
// pool hits the hard floor.
package gcsched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/telemetry"
)

// Shard is one independently steppable GC domain (a prototype engine
// shard): the pacer polls need and urgency, then buys bounded slices
// of relocation work. Implementations lock their own store for the
// duration of each call.
type Shard interface {
	// GCNeeded reports pending GC work: an in-flight (paused) cycle or
	// a free pool at or below the low watermark.
	GCNeeded() bool
	// GCUrgency is the distance-to-watermark signal: 0 at the high
	// watermark, 1 at the low watermark, above 1 approaching the
	// emergency floor.
	GCUrgency() float64
	// GCStep runs up to budget relocation units and reports whether no
	// cycle remains in flight.
	GCStep(budget int) bool
}

// Config tunes the pacer. Zero values take defaults.
type Config struct {
	// Interval is the pacing tick (default 2ms). Each tick makes at
	// most one scheduling decision and buys at most one slice.
	Interval time.Duration
	// SliceUnits is the relocation budget of a tick at urgency 1.0, in
	// GC work units (one unit ≈ one victim chunk scanned or one block
	// relocated; default 32). The effective budget scales linearly with
	// urgency, clamped to [SliceUnits/4, 4*SliceUnits].
	SliceUnits int
	// TargetP999 backs off non-urgent slices while the observed tail
	// exceeds it (default 0: no tail feedback).
	TargetP999 time.Duration
	// P999 supplies the live tail latency (required when TargetP999 is
	// set).
	P999 func() time.Duration
	// QueueFill supplies the worst device-queue fill fraction (nil: no
	// queue feedback); non-urgent slices wait while it exceeds
	// queueHighFill. Only prototype.Run has device queues to read; a
	// served stack leaves it nil.
	QueueFill func() float64
	// Telemetry, when set, registers the pacer's counters.
	Telemetry *telemetry.Set
}

const (
	// microSlice bounds one store-lock hold, in units: a tick's budget
	// is bought as a sequence of micro-slices with separate lock
	// acquisitions, so foreground writes interleave between them and the
	// worst-case wait behind background GC is one micro-slice, not one
	// tick budget.
	microSlice = 8
	// queueHighFill is the device-queue fill above which non-urgent
	// slices wait.
	queueHighFill = 0.75
	// vetoUrgency bounds the backoff signals' authority: once the
	// neediest shard's urgency reaches it, tail and queue vetoes no
	// longer defer the slice. Deferral is a positive feedback loop —
	// deferred GC drains the pool, an emergency cycle at the floor
	// spikes the very tail signal that caused the deferral — so the
	// veto must lose its vote with half the watermark cushion still
	// unspent, not at the low watermark when the cushion is gone.
	vetoUrgency = 0.5
)

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Interval == 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	if cfg.Interval < 0 {
		return cfg, fmt.Errorf("gcsched: negative interval %v", cfg.Interval)
	}
	if cfg.SliceUnits == 0 {
		cfg.SliceUnits = 32
	}
	if cfg.SliceUnits < 0 {
		return cfg, fmt.Errorf("gcsched: negative slice budget %d", cfg.SliceUnits)
	}
	if cfg.TargetP999 < 0 {
		return cfg, fmt.Errorf("gcsched: negative p999 target %v", cfg.TargetP999)
	}
	if cfg.TargetP999 > 0 && cfg.P999 == nil {
		return cfg, fmt.Errorf("gcsched: TargetP999 set without a P999 source")
	}
	return cfg, nil
}

// Stats is a point-in-time snapshot of the pacer's counters.
type Stats struct {
	// Slices is the number of GC slices bought; Units the total
	// relocation budget handed out with them.
	Slices, Units int64
	// TailSkips and QueueSkips count ticks where a needy shard existed
	// but the tail-latency or queue-fill signal deferred it.
	TailSkips, QueueSkips int64
	// IdleTicks counts ticks with no shard needing GC.
	IdleTicks int64
}

// Controller is the background GC pacer. Construct with New, then
// either Start a pacing goroutine or drive Tick directly (tests).
type Controller struct {
	cfg    Config
	shards []Shard

	slices     atomic.Int64
	units      atomic.Int64
	tailSkips  atomic.Int64
	queueSkips atomic.Int64
	idleTicks  atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New validates cfg and builds a controller over the given shards.
func New(cfg Config, shards []Shard) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("gcsched: no shards")
	}
	c := &Controller{
		cfg:    cfg,
		shards: shards,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if ts := cfg.Telemetry; ts != nil {
		type counter struct {
			name, help string
			v          *atomic.Int64
		}
		for _, m := range []counter{
			{telemetry.MetricGCSchedSlices, "GC slices bought by the pacer", &c.slices},
			{telemetry.MetricGCSchedUnits, "Relocation budget handed out by the pacer", &c.units},
			{telemetry.MetricGCSchedTailSkips, "Slices deferred by the tail-latency signal", &c.tailSkips},
			{telemetry.MetricGCSchedQueueSkips, "Slices deferred by the queue-fill signal", &c.queueSkips},
		} {
			v := m.v
			ts.Registry.NewFuncGauge(m.name, m.help, true, v.Load)
		}
	}
	return c, nil
}

// Start launches the pacing goroutine. Stop it with Stop.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.Tick()
				}
			}
		}()
	})
}

// Stop halts the pacing goroutine and waits for it. Safe to call
// without Start and more than once.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) })
	<-c.done
}

// Tick makes one scheduling decision: pick the neediest shard, consult
// the backoff signals, and buy at most one urgency-scaled slice. It
// returns true if a slice ran. Exported so tests (and the simulator's
// per-op stepping) can drive the pacer deterministically without the
// goroutine.
func (c *Controller) Tick() bool {
	best, bestU := -1, 0.0
	for i, sh := range c.shards {
		if !sh.GCNeeded() {
			continue
		}
		if u := sh.GCUrgency(); best < 0 || u > bestU {
			best, bestU = i, u
		}
	}
	if best < 0 {
		c.idleTicks.Add(1)
		return false
	}
	// The backoff signals only get a veto while the neediest shard is
	// still comfortably above its watermark cushion's midpoint. Past
	// vetoUrgency the slice runs regardless — better a paced slice now
	// than an emergency stop-the-world cycle at the floor, which would
	// spike the very tail signal that deferred the pacing.
	if bestU < vetoUrgency {
		if c.cfg.TargetP999 > 0 && c.cfg.P999() > c.cfg.TargetP999 {
			c.tailSkips.Add(1)
			return false
		}
		if c.cfg.QueueFill != nil && c.cfg.QueueFill() > queueHighFill {
			c.queueSkips.Add(1)
			return false
		}
	}
	scale := bestU
	if scale < 0.25 {
		scale = 0.25
	}
	if scale > 4 {
		scale = 4
	}
	budget := int(float64(c.cfg.SliceUnits) * scale)
	if budget < 1 {
		budget = 1
	}
	// Buy the budget as micro-slices: each GCStep is its own lock
	// acquisition on the shard, so a foreground write waits at most one
	// micro-slice even when an urgent tick buys 4× the base budget. The
	// Gosched between slices matters: without it the hot loop re-locks
	// before a blocked writer is rescheduled (Go mutexes barge), and the
	// micro-slicing buys nothing.
	sh := c.shards[best]
	for spent := 0; spent < budget; {
		step := microSlice
		if rest := budget - spent; step > rest {
			step = rest
		}
		done := sh.GCStep(step)
		spent += step
		c.slices.Add(1)
		c.units.Add(int64(step))
		if done {
			break
		}
		runtime.Gosched()
	}
	return true
}

// Interval returns the defaulted pacing tick.
func (c *Controller) Interval() time.Duration { return c.cfg.Interval }

// Stats snapshots the pacer counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Slices:     c.slices.Load(),
		Units:      c.units.Load(),
		TailSkips:  c.tailSkips.Load(),
		QueueSkips: c.queueSkips.Load(),
		IdleTicks:  c.idleTicks.Load(),
	}
}
