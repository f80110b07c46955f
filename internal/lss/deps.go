package lss

import (
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// Deps bundles every external dependency a Store can be wired with,
// supplied once at construction: New(cfg, policy, Deps{...}). It
// replaces the former grown-by-accretion Set* methods, so a store's
// wiring is complete and immutable-by-default the moment it exists —
// no window where a half-configured store can serve traffic, and no
// ordering contract between setters (shard-before-telemetry used to be
// one). The runtime-mutable subset is exposed through Reconfigure.
type Deps struct {
	// Sink observes every chunk flush; the prototype routes these to
	// simulated devices.
	Sink ChunkSink
	// AuditSink is a second, independent chunk-flush observer reserved
	// for verification (the checker's byte mirror), so the oracle
	// composes with a device model holding the primary slot.
	AuditSink ChunkSink
	// Clock, when set, overrides the store's logical clock for
	// telemetry timestamps. The logical clock only advances at op
	// boundaries, so it is frozen during a synchronous GC cycle; a live
	// deployment injects a wall-derived clock so GC intervals have real
	// width.
	Clock func() sim.Time
	// GCGate is a cross-shard GC admission gate: acquire runs at the
	// start of every synchronous GC cycle (it may block) and the
	// release it returns runs when the cycle completes. Ignored under
	// Config.BackgroundGC, where the external pacer serializes GC
	// slices itself and a per-cycle token would be held across
	// preemption pauses.
	GCGate func() (release func())
	// Durable, when set, persists segment lifecycle transitions and
	// flushed chunks beneath the in-memory image (internal/segfile is
	// the file-backed implementation). Construction-time wiring only:
	// a durable backend must observe every transition from the first
	// append, so it cannot be attached through Reconfigure. The first
	// backend error latches the store (see Store.DurableErr).
	Durable DurableLog
	// Telemetry attaches live instrumentation (see attachTelemetry for
	// the contract). At most one set per store.
	Telemetry *telemetry.Set
	// ReclaimObserver is called with every reclaimed victim's segment
	// id, in reclaim order; the differential harness compares victim
	// sequences across selection paths through it.
	ReclaimObserver func(segID int)
	// Sharded marks the store as one partition of a sharded engine and
	// Shard as its id: telemetry metric names gain a {shard="id"}
	// label, GC intervals carry the shard, and neither the recorder nor
	// the tracer is attached (both are simulator-only). The zero value
	// is a standalone store.
	Sharded bool
	Shard   int
}

// applyDeps wires at most one Deps into a freshly built (or freshly
// recovered) store.
func (s *Store) applyDeps(deps []Deps) {
	switch len(deps) {
	case 0:
		return
	case 1:
	default:
		panic("lss: pass at most one Deps")
	}
	d := deps[0]
	s.sink = d.Sink
	s.auditSink = d.AuditSink
	s.clock = d.Clock
	s.gcGate = d.GCGate
	s.durable = d.Durable
	s.onReclaim = d.ReclaimObserver
	if d.Sharded {
		s.shard = int32(d.Shard)
	}
	if d.Telemetry != nil {
		s.attachTelemetry(d.Telemetry)
	}
}

// Runtime is the runtime-mutable slice of a store's wiring. Everything
// else in Deps (clock, gate, shard identity) is fixed for the store's
// lifetime.
type Runtime struct {
	// Sink and AuditSink may be attached or swapped after construction
	// (a device model attaches to an existing simulator; the checker's
	// mirror attaches to a store built elsewhere).
	Sink      ChunkSink
	AuditSink ChunkSink
	// Telemetry may attach late — notably after Recover, when the set
	// must see the recovered-segment counters. Re-attaching a different
	// set registers fresh instruments; attaching the same set is a
	// no-op; nil detaches the tracer and recorder.
	Telemetry *telemetry.Set
	// ReclaimObserver may be installed per-experiment.
	ReclaimObserver func(segID int)
	// Degraded toggles degraded-mode GC throttling (array column
	// failed, rebuild behind its watermark): cycles reclaim one victim
	// at a time and stop just above the low watermark. The flag is read
	// at every victim-batch boundary of the GC state machine, so a
	// toggle lands on an in-flight (possibly preempted) cycle at the
	// next batch rather than racing the cycle's latched target — the
	// former SetDegraded could not affect a running cycle at all.
	Degraded bool
}

// Reconfigure exposes the runtime-mutable wiring: fn receives the
// current values and the store adopts whatever fn leaves behind.
// Callers must serialize Reconfigure with all other store use, exactly
// as for mutating operations; changes take effect at the next
// operation or GC scheduling boundary.
func (s *Store) Reconfigure(fn func(*Runtime)) {
	r := Runtime{
		Sink:            s.sink,
		AuditSink:       s.auditSink,
		Telemetry:       s.tset,
		ReclaimObserver: s.onReclaim,
		Degraded:        s.degraded,
	}
	fn(&r)
	s.sink = r.Sink
	s.auditSink = r.AuditSink
	s.onReclaim = r.ReclaimObserver
	s.degraded = r.Degraded
	if r.Telemetry != s.tset {
		s.attachTelemetry(r.Telemetry)
	}
}
