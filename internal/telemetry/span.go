package telemetry

import (
	"fmt"
	"sync/atomic"

	"adapt/internal/sim"
)

// Stage names one segment of a request's journey through the serving
// stack. Stages are ordered: a span stamps the *end* of each stage it
// passes through, and per-stage durations derive from consecutive
// stamps (a zero stamp means the stage was skipped, e.g. Batch for a
// read).
type Stage uint8

// The request stage taxonomy, in pipeline order.
const (
	// StageDecode: frame CRC check and header parse.
	StageDecode Stage = iota
	// StageAdmission: per-tenant admission control (semaphore take).
	StageAdmission
	// StageBatch: waiting for the shard's group-commit slot while the
	// previous group is in the engine (or, for FLUSH, waiting for the
	// group commits in flight).
	StageBatch
	// StageLockWait: waiting for the engine lock.
	StageLockWait
	// StageCommit: applying the op in the store under the engine lock,
	// excluding time blocked on device queues.
	StageCommit
	// StageFlush: blocked dispatching chunk/read jobs onto the bounded
	// device queues (device backpressure).
	StageFlush
	// StageRespond: queued behind the connection writer plus the socket
	// write.
	StageRespond

	// NumStages is the stage count; arrays indexed by Stage use it.
	NumStages
)

// String returns the stage tag used in metric labels, STAT keys, and
// /debug/trace JSON.
func (st Stage) String() string {
	switch st {
	case StageDecode:
		return "decode"
	case StageAdmission:
		return "admission"
	case StageBatch:
		return "batch"
	case StageLockWait:
		return "lockwait"
	case StageCommit:
		return "commit"
	case StageFlush:
		return "flush"
	case StageRespond:
		return "respond"
	default:
		return fmt.Sprintf("stage(%d)", int(st))
	}
}

// Span records one request's passage through the named stages. All
// timestamps are on the owner's simulated clock (wall-derived in the
// engine), so spans are directly comparable with tracer events and
// interference intervals. A span is written by the request's handling
// goroutines (hand-offs are channel-sequenced) and becomes immutable
// once published to a SpanRing.
//
// All methods are nil-safe: a nil *Span is the disabled-tracing
// fast path and costs one branch.
type Span struct {
	ID     uint64
	Volume uint32
	Op     uint8
	Status uint8
	// Forced marks a span opted into exemplar capture by the client
	// (wire.FlagTrace): it is published regardless of the threshold.
	Forced bool
	LBA    uint64
	Count  uint32

	// Start is the clock at frame arrival (after the socket read,
	// before decode).
	Start sim.Time
	// Stamp[s] is the clock at the end of stage s; zero means the stage
	// was skipped.
	Stamp [NumStages]sim.Time
}

// MarkAt stamps the end of stage st. Nil-safe.
func (sp *Span) MarkAt(st Stage, now sim.Time) {
	if sp != nil {
		sp.Stamp[st] = now
	}
}

// End returns the last stamped time (the span's completion).
func (sp *Span) End() sim.Time {
	if sp == nil {
		return 0
	}
	for st := NumStages; st > 0; st-- {
		if t := sp.Stamp[st-1]; t != 0 {
			return t
		}
	}
	return sp.Start
}

// TotalNS returns the span's end-to-end latency in nanoseconds.
func (sp *Span) TotalNS() int64 {
	if sp == nil {
		return 0
	}
	return int64(sp.End() - sp.Start)
}

// StageDurs returns the per-stage durations in nanoseconds: each
// stamped stage's time since the previous stamped stage (or Start).
// Skipped stages are zero.
func (sp *Span) StageDurs() [NumStages]int64 {
	var out [NumStages]int64
	if sp == nil {
		return out
	}
	prev := sp.Start
	for st := Stage(0); st < NumStages; st++ {
		if t := sp.Stamp[st]; t != 0 {
			out[st] = int64(t - prev)
			prev = t
		}
	}
	return out
}

// Reset clears the span for pool reuse.
func (sp *Span) Reset() { *sp = Span{} }

// SpanRing is a bounded lock-free ring of published exemplar spans.
// Publish claims a slot with one atomic add and installs the span with
// one atomic pointer store; concurrent publishers and snapshotters
// never block each other. When the ring is full the oldest exemplars
// are overwritten. A published span must not be mutated afterwards.
type SpanRing struct {
	slots []atomic.Pointer[Span]
	seq   atomic.Uint64
}

// NewSpanRing creates a ring holding up to capacity exemplars.
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = 256
	}
	return &SpanRing{slots: make([]atomic.Pointer[Span], capacity)}
}

// Publish installs sp as the newest exemplar. Nil-safe on both sides.
func (r *SpanRing) Publish(sp *Span) {
	if r == nil || sp == nil {
		return
	}
	i := r.seq.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(sp)
}

// Published returns the number of spans ever published.
func (r *SpanRing) Published() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot appends the currently buffered exemplars to dst and returns
// the extended slice. Order is approximately oldest-first; under
// concurrent publication a slot may be observed empty or fresher than
// its neighbours, which is fine for exemplar dumps.
func (r *SpanRing) Snapshot(dst []*Span) []*Span {
	if r == nil {
		return dst
	}
	n := r.seq.Load()
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	first := r.seq.Load() - n
	for i := first; i < first+n; i++ {
		if sp := r.slots[i%uint64(len(r.slots))].Load(); sp != nil {
			dst = append(dst, sp)
		}
	}
	return dst
}

// Log2Bounds returns power-of-two histogram bounds from lo to hi
// inclusive (each bound doubling) — the log-scale (HDR-style) bucket
// layout the per-stage latency histograms use, giving constant relative
// error across six decades of latency for a few dozen buckets.
func Log2Bounds(lo, hi int64) []int64 {
	if lo < 1 {
		lo = 1
	}
	var out []int64
	for b := lo; b <= hi && b > 0; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of
// the observed distribution: the upper bound of the bucket where the
// cumulative count crosses q. Overflow observations report the last
// finite bound. Nil-safe; returns 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if cum >= target {
			return b
		}
	}
	return h.bounds[len(h.bounds)-1]
}
