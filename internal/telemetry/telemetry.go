// Package telemetry is the low-overhead instrumentation layer shared
// by the trace-driven simulator, the concurrent prototype, and the
// experiment harness. It has three cooperating pieces:
//
//   - A Registry of named instruments: atomic counters and gauges,
//     function-backed gauges that read owner state when they are read,
//     and fixed-bucket histograms. The registry renders Prometheus-style
//     text exposition for live scraping.
//   - A windowed time-series Recorder that snapshots every scalar
//     instrument at a configurable interval of simulated time and keeps
//     a bounded history of per-window deltas, from which per-window WA,
//     effective WA, padding ratio, GC-cycle rate, and per-group/
//     per-device utilization derive. Only the simulator's standalone
//     store drives one.
//   - A bounded ring-buffer Tracer of typed events (GC cycles, segment
//     seals, chunk flushes, threshold adaptations, demotions, SLA
//     padding flushes) with JSONL export. Engine shard stores emit none.
//
// Every hook is nil-safe: a nil *Recorder, *Tracer, or *Histogram is a
// no-op, so instrumented hot paths cost one nil check and zero
// allocations when telemetry is disabled.
//
// Concurrency contract: counters, gauges, histograms, exports, and the
// HTTP handler are safe for concurrent use. A function gauge evaluates
// its callback on every read: registered through a Guarded view it
// does so under the owner's lock (an engine shard's), otherwise it must
// read only atomics or be read while its owner is idle (the simulator
// ticks its recorder on its own goroutine).
package telemetry

import (
	"sync"

	"adapt/internal/sim"
)

// Options configures a telemetry Set. Zero fields take defaults.
type Options struct {
	// WindowInterval is the time-series window width in simulated time
	// (default 10 ms).
	WindowInterval sim.Time
	// MaxWindows bounds the recorder history; the oldest windows are
	// dropped first (default 4096).
	MaxWindows int
	// EventCapacity bounds the tracer ring buffer (default 4096).
	EventCapacity int
}

// Set bundles the telemetry components over one shared registry.
type Set struct {
	Registry *Registry
	Recorder *Recorder
	Tracer   *Tracer
	// Intervals collects interference windows (GC cycles, degraded
	// columns) for post-hoc tail-latency attribution.
	Intervals *IntervalLog
}

// New builds a telemetry set with the given options.
func New(opts Options) *Set {
	if opts.WindowInterval <= 0 {
		opts.WindowInterval = 10 * sim.Millisecond
	}
	if opts.MaxWindows <= 0 {
		opts.MaxWindows = 4096
	}
	if opts.EventCapacity <= 0 {
		opts.EventCapacity = 4096
	}
	reg := NewRegistry()
	return &Set{
		Registry:  reg,
		Recorder:  NewRecorder(reg, opts.WindowInterval, opts.MaxWindows),
		Tracer:    NewTracer(opts.EventCapacity),
		Intervals: NewIntervalLog(opts.EventCapacity),
	}
}

// Guarded returns a view of s whose Registry is s.Registry.Guarded(mu);
// every other component is shared.
func (s *Set) Guarded(mu sync.Locker) *Set {
	g := *s
	g.Registry = s.Registry.Guarded(mu)
	return &g
}
