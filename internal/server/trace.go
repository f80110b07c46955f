package server

import (
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/prototype"
	"adapt/internal/server/wire"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// TraceConfig configures per-request tracing. When disabled the whole
// subsystem costs one nil check per request.
type TraceConfig struct {
	// Enabled turns on span capture for every request.
	Enabled bool
	// Threshold is the end-to-end latency above which a span is
	// published to the exemplar ring (default 500 µs). Requests carrying
	// wire.FlagTrace publish regardless.
	Threshold time.Duration
}

// ringCap bounds each connection's exemplar ring.
const ringCap = 256

// traceState is the server's tracing runtime: a span pool, the
// per-connection exemplar rings, the per-stage/per-tenant latency
// histograms, and the interference-interval source for attribution.
type traceState struct {
	thresholdNS int64
	pool        sync.Pool
	itv         *telemetry.IntervalLog

	// stageHist/volHist/exemplars are nil (no-op) without telemetry.
	stageHist [telemetry.NumStages]*telemetry.Histogram
	volHist   []*telemetry.Histogram
	exemplars *telemetry.Counter

	// mu guards the live per-connection ring set; taken only at
	// connection open/close and snapshot time, never per request.
	mu      sync.Mutex
	rings   map[*telemetry.SpanRing]struct{}
	retired *telemetry.SpanRing

	// tail is the windowed end-to-end latency meter behind
	// Server.TailP999 — the GC pacer's feedback signal.
	tail tailMeter
}

// tailBuckets spans 1 ns to ~2^41 ns (~37 min) in log2 buckets.
const tailBuckets = 42

// tailMinSamples is the smallest window worth a fresh quantile; below
// it the meter keeps accumulating and answers with the last estimate.
const tailMinSamples = 32

// tailMeter estimates a *recent* latency quantile. The cumulative
// stage histograms converge over a run and stop reflecting the
// present, so the background-GC pacer — which needs to notice a tail
// excursion and back off within milliseconds — reads this instead:
// writers bump atomic log2 buckets, and each reader call computes the
// quantile over the window of observations since the previous call
// that consumed one.
type tailMeter struct {
	counts [tailBuckets]atomic.Int64

	mu    sync.Mutex
	prev  [tailBuckets]int64
	lastQ int64
}

// observe records one end-to-end latency. Safe for concurrent use.
func (t *tailMeter) observe(ns int64) {
	if ns < 0 {
		return
	}
	idx := bits.Len64(uint64(ns))
	if idx >= tailBuckets {
		idx = tailBuckets - 1
	}
	t.counts[idx].Add(1)
}

// quantileNS returns the q-quantile (upper bucket bound) of the
// observations since the last window consumption, or the previous
// estimate while the window is too thin to be meaningful.
func (t *tailMeter) quantileNS(q float64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur [tailBuckets]int64
	var total int64
	for i := range cur {
		cur[i] = t.counts[i].Load()
		total += cur[i] - t.prev[i]
	}
	if total < tailMinSamples {
		return t.lastQ
	}
	rank := int64(float64(total)*q + 0.5)
	if rank > total {
		rank = total
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range cur {
		seen += cur[i] - t.prev[i]
		if seen >= rank {
			t.prev = cur
			t.lastQ = int64(1) << uint(i) // upper bound: bucket i covers [2^(i-1), 2^i)
			return t.lastQ
		}
	}
	t.prev = cur
	return t.lastQ
}

// newTraceState builds the tracing runtime and registers its latency
// instruments (log-scale ns histograms, 1 µs .. ~2 s) when ts is set.
func newTraceState(cfg TraceConfig, vols int, ts *telemetry.Set) *traceState {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 500 * time.Microsecond
	}
	tr := &traceState{
		thresholdNS: cfg.Threshold.Nanoseconds(),
		pool:        sync.Pool{New: func() any { return new(telemetry.Span) }},
		rings:       make(map[*telemetry.SpanRing]struct{}),
		retired:     telemetry.NewSpanRing(4 * ringCap),
	}
	if ts != nil {
		tr.itv = ts.Intervals
		bounds := telemetry.Log2Bounds(1024, 1<<31)
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			tr.stageHist[st] = ts.Registry.NewHistogram(
				fmt.Sprintf("%s{stage=\"%s\"}", telemetry.MetricServerStageLatencyPrefix, st),
				"Request stage latency in nanoseconds", bounds)
		}
		tr.volHist = make([]*telemetry.Histogram, vols)
		for i := range tr.volHist {
			tr.volHist[i] = ts.Registry.NewHistogram(
				fmt.Sprintf("%s{vol=\"%d\"}", telemetry.MetricServerRequestLatencyPrefix, i),
				"End-to-end request latency in nanoseconds", bounds)
		}
		tr.exemplars = ts.Registry.NewCounter(telemetry.MetricServerTraceExemplars,
			"Spans published to the exemplar ring")
	}
	return tr
}

// drop returns an unpublished span to the pool.
func (tr *traceState) drop(sp *telemetry.Span) {
	sp.Reset()
	tr.pool.Put(sp)
}

// finish completes a span after its response hit the socket and the
// reply writer stamped its respond stage: feeds the latency histograms,
// and either publishes the span as an exemplar (over threshold, or
// client-forced) or returns it to the pool.
func (tr *traceState) finish(sp *telemetry.Span, ring *telemetry.SpanRing) {
	total := sp.TotalNS()
	tr.tail.observe(total)
	durs := sp.StageDurs()
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		if durs[st] > 0 {
			tr.stageHist[st].Observe(durs[st])
		}
	}
	if int(sp.Volume) < len(tr.volHist) {
		tr.volHist[sp.Volume].Observe(total)
	}
	if sp.Forced || total >= tr.thresholdNS {
		tr.exemplars.Inc()
		ring.Publish(sp) // published spans are immutable; not pooled
		return
	}
	tr.drop(sp)
}

// markEngine transfers an engine OpTiming onto the span: lock wait,
// commit (store apply excluding device backpressure), and flush (time
// blocked on device queues, re-ordered to the stage tail).
func markEngine(sp *telemetry.Span, t prototype.OpTiming) {
	if sp == nil {
		return
	}
	sp.MarkAt(telemetry.StageLockWait, t.Locked)
	sp.MarkAt(telemetry.StageCommit, t.Done-sim.Time(t.SinkNS))
	if t.SinkNS > 0 {
		sp.MarkAt(telemetry.StageFlush, t.Done)
	}
}

// Exemplar is one attributed slow-request span.
type Exemplar struct {
	Span *telemetry.Span
	// Cause is the attributed dominant cause: "backpressure", "gc",
	// "degraded", "commit-wait", "admission", "engine-lock", "wire", or
	// "engine".
	Cause string
	// CauseID is the GC cycle number or failure generation when the
	// cause is an interference interval, 0 otherwise.
	CauseID int64
	// Column is the interfering RAID column, -1 when not column-specific.
	Column int32
	// Shard is the engine shard the blame lands on: the interfering
	// interval's publishing shard, or the shard owning the request's
	// LBA when the cause is not an interference window. -1 when there
	// is no window to blame and the engine has a single shard.
	Shard int32
	// OverlapNS is how much of the span overlapped the blamed
	// interference interval.
	OverlapNS int64
}

// attribute tags a span with its dominant latency cause. Interference
// overlap (GC first, then degraded windows) takes precedence;
// otherwise the slowest stage is blamed.
func attribute(sp *telemetry.Span, ivs []telemetry.Interval) (cause string, id int64, col, shard int32, overlapNS int64) {
	if wire.Status(sp.Status) == wire.StatusBackpressure {
		return "backpressure", 0, -1, -1, 0
	}
	a, b := sp.Start, sp.End()
	var gcBest, otherBest telemetry.Interval
	var gcOv, otherOv int64
	for _, iv := range ivs {
		ov := iv.Overlap(a, b)
		if ov <= 0 {
			continue
		}
		if iv.Kind == telemetry.IntervalGC {
			if ov > gcOv {
				gcOv, gcBest = ov, iv
			}
		} else if ov > otherOv {
			otherOv, otherBest = ov, iv
		}
	}
	if gcOv > 0 {
		return "gc", gcBest.ID, gcBest.Column, gcBest.Shard, gcOv
	}
	if otherOv > 0 {
		return otherBest.Kind.String(), otherBest.ID, otherBest.Column, otherBest.Shard, otherOv
	}
	durs := sp.StageDurs()
	worst := telemetry.StageDecode
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		if durs[st] > durs[worst] {
			worst = st
		}
	}
	switch worst {
	case telemetry.StageBatch:
		return "commit-wait", 0, -1, -1, 0
	case telemetry.StageAdmission:
		return "admission", 0, -1, -1, 0
	case telemetry.StageLockWait:
		return "engine-lock", 0, -1, -1, 0
	case telemetry.StageDecode, telemetry.StageRespond:
		return "wire", 0, -1, -1, 0
	default:
		return "engine", 0, -1, -1, 0
	}
}

// lastEstimateNS returns the most recent computed quantile without
// consuming the current window.
func (t *tailMeter) lastEstimateNS() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastQ
}

// TailP999 returns a windowed p999 of end-to-end request latency —
// the tail observed since the previous call, not since the server
// started. It is the feedback signal for the background GC pacer
// (gcsched.Config.P999) and consumes the window, so wire exactly one
// consumer; everything else should read the srv_tail_p999_ns STAT.
// Returns 0 while tracing is disabled or before enough samples arrive.
func (s *Server) TailP999() time.Duration {
	if s.trace == nil {
		return 0
	}
	return time.Duration(s.trace.tail.quantileNS(0.999))
}

// TraceSnapshot returns up to k attributed exemplars with end-to-end
// latency of at least minNS, slowest first, drawn from every live
// connection ring plus retired connections. Returns nil when tracing
// is disabled.
func (s *Server) TraceSnapshot(minNS int64, k int) []Exemplar {
	tr := s.trace
	if tr == nil {
		return nil
	}
	if k <= 0 {
		k = 32
	}
	var spans []*telemetry.Span
	tr.mu.Lock()
	for r := range tr.rings {
		spans = r.Snapshot(spans)
	}
	tr.mu.Unlock()
	spans = tr.retired.Snapshot(spans)
	kept := spans[:0]
	for _, sp := range spans {
		if sp.TotalNS() >= minNS {
			kept = append(kept, sp)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].TotalNS() > kept[j].TotalNS() })
	if len(kept) > k {
		kept = kept[:k]
	}
	ivs := tr.itv.Snapshot()
	sharded := s.eng.Shards() > 1
	out := make([]Exemplar, len(kept))
	for i, sp := range kept {
		ex := Exemplar{Span: sp}
		ex.Cause, ex.CauseID, ex.Column, ex.Shard, ex.OverlapNS = attribute(sp, ivs)
		if ex.Shard < 0 && sharded && int(sp.Volume) < len(s.vols) {
			// No interference window to blame: attribute the request to
			// the shard that served its LBA.
			ex.Shard = int32(s.eng.ShardOf(s.vols[sp.Volume].base + int64(sp.LBA)))
		}
		out[i] = ex
	}
	return out
}

// TraceHandler serves the exemplar dump at /debug/trace as NDJSON.
// Query parameters: k (max exemplars, default 32) and min_ns (latency
// floor, default 0).
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if s.trace == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		k := 32
		if v := r.URL.Query().Get("k"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, "bad k", http.StatusBadRequest)
				return
			}
			k = n
		}
		var minNS int64
		if v := r.URL.Query().Get("min_ns"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				http.Error(w, "bad min_ns", http.StatusBadRequest)
				return
			}
			minNS = n
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, ex := range s.TraceSnapshot(minNS, k) {
			sp := ex.Span
			durs := sp.StageDurs()
			fmt.Fprintf(w, `{"id":%d,"vol":%d,"op":%q,"status":%q,"lba":%d,"blocks":%d,"forced":%v,"start_ns":%d,"total_ns":%d`,
				sp.ID, sp.Volume, wire.Op(sp.Op).String(), wire.Status(sp.Status).String(),
				sp.LBA, sp.Count, sp.Forced, int64(sp.Start), sp.TotalNS())
			for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
				fmt.Fprintf(w, `,"%s_ns":%d`, st, durs[st])
			}
			fmt.Fprintf(w, `,"cause":%q,"cause_id":%d,"column":%d,"shard":%d,"overlap_ns":%d}`+"\n",
				ex.Cause, ex.CauseID, ex.Column, ex.Shard, ex.OverlapNS)
		}
	})
}
