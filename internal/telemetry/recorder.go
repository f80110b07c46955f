package telemetry

import (
	"sync"

	"adapt/internal/sim"
)

// Canonical metric names the store and prototype register, which the
// per-window derivations and exporters key on. Per-group and
// per-device families embed their index as a {label="N"} suffix.
const (
	MetricUserBlocks        = "lss_user_blocks_total"
	MetricGCBlocks          = "lss_gc_blocks_total"
	MetricShadowBlocks      = "lss_shadow_blocks_total"
	MetricPaddingBlocks     = "lss_padding_blocks_total"
	MetricReadBlocks        = "lss_read_blocks_total"
	MetricTrimmedBlocks     = "lss_trimmed_blocks_total"
	MetricGCCycles          = "lss_gc_cycles_total"
	MetricGCThrottled       = "lss_gc_throttled_cycles_total"
	MetricSegmentsReclaimed = "lss_segments_reclaimed_total"
	MetricGCScanned         = "lss_gc_scanned_blocks_total"
	MetricGCSlices          = "lss_gc_slices_total"
	MetricGCEmergency       = "lss_gc_emergency_runs_total"

	MetricGCSchedSlices     = "gcsched_slices_total"
	MetricGCSchedUnits      = "gcsched_units_total"
	MetricGCSchedTailSkips  = "gcsched_tail_skips_total"
	MetricGCSchedQueueSkips = "gcsched_queue_skips_total"
	MetricChunkFlushes      = "lss_chunk_flushes_total"
	MetricFreeSegments      = "lss_free_segments"

	// Durable-backend (internal/segfile) instrumentation.
	MetricDurableSyncedSegments    = "lss_durable_synced_segments_total"
	MetricDurableFsyncs            = "lss_durable_fsyncs_total"
	MetricDurableDirSyncs          = "lss_durable_dir_syncs_total"
	MetricDurableBytes             = "lss_durable_bytes_total"
	MetricDurableCheckpoints       = "lss_durable_checkpoints_total"
	MetricDurableFsyncHistogram    = "lss_durable_fsync_ns"
	MetricDurableRecoveredSegments = "lss_durable_recovered_segments"
	MetricDurableRecoveredBlocks   = "lss_durable_recovered_blocks"
	MetricDurableTornRecords       = "lss_durable_torn_records"
	MetricDurableInlineCommits     = "lss_durable_inline_commits_total"

	MetricSLAViolations = "lss_sla_violations_total"

	// MetricGroupBlocksPrefix is the per-group total-traffic family:
	// lss_group_blocks_total{group="N"}.
	MetricGroupBlocksPrefix = "lss_group_blocks_total"
	// MetricGroupPaddingPrefix is the per-group padding-traffic family:
	// lss_group_padding_blocks_total{group="N"}.
	MetricGroupPaddingPrefix = "lss_group_padding_blocks_total"
	// MetricChunkPadHistogram is the padding-blocks-per-chunk-flush
	// histogram.
	MetricChunkPadHistogram = "lss_chunk_pad_blocks"
	// MetricDeviceBusyPrefix is the prototype's per-device busy-time
	// family: proto_device_busy_ns_total{device="N"}.
	MetricDeviceBusyPrefix = "proto_device_busy_ns_total"
	// MetricDeviceQueuePrefix is the per-device queue-depth family.
	MetricDeviceQueuePrefix = "proto_device_queue_depth"
	// MetricDeviceChunksPrefix is the per-device chunk-count family.
	MetricDeviceChunksPrefix = "proto_device_chunks_total"

	// Fault-subsystem counters (prototype degraded mode).
	// MetricDegradedReads counts reads served by XOR reconstruction
	// fan-out because their column was failed.
	MetricDegradedReads = "proto_degraded_reads_total"
	// MetricRebuildChunks counts chunks the rebuild pushed through the
	// device queues onto the spare.
	MetricRebuildChunks = "proto_rebuild_chunks_total"
	// MetricLostChunks counts chunk writes dropped on the failed
	// column (reconstructable from parity until the rebuild lands).
	MetricLostChunks = "proto_lost_chunks_total"

	MetricAdaptThreshold = "adapt_threshold_blocks"
	MetricAdaptAdoptions = "adapt_threshold_adoptions_total"
	MetricAdaptDemotions = "adapt_demotions_total"
	MetricAdaptShadows   = "adapt_shadow_grants_total"

	// Block-service (internal/server) counters.
	// MetricServerConns is the open client connection gauge.
	MetricServerConns = "srv_connections_open"
	// MetricServerRequestsPrefix is the per-opcode request family:
	// srv_requests_total{op="WRITE"}.
	MetricServerRequestsPrefix = "srv_requests_total"
	// MetricServerBackpressure counts requests rejected by per-tenant
	// admission control.
	MetricServerBackpressure = "srv_backpressure_total"
	// MetricServerBatches counts write-batcher group commits.
	MetricServerBatches = "srv_batches_total"
	// MetricServerBatchedWrites counts WRITE requests committed through
	// the batcher (the rest committed individually).
	MetricServerBatchedWrites = "srv_batched_writes_total"
	// MetricServerBatchFill is the histogram of blocks per group commit.
	MetricServerBatchFill = "srv_batch_fill_blocks"
	// MetricServerBytesIn / MetricServerBytesOut count wire payload
	// bytes received in WRITE requests and sent in READ responses.
	MetricServerBytesIn  = "srv_bytes_in_total"
	MetricServerBytesOut = "srv_bytes_out_total"
	// MetricServerPlaneBytes is the volume data plane mapped outside
	// the Go heap.
	MetricServerPlaneBytes = "srv_volume_plane_bytes"
	// MetricServerVolumeFsyncs counts fsyncs of the volumes' vol-N.dat
	// files — the durable layer that carries every ack.
	MetricServerVolumeFsyncs = "srv_volume_fsyncs_total"
	// MetricGoHeapInuse / MetricGoGCCycles are the served process's Go
	// heap in use and its completed GC cycles, read from runtime/metrics
	// at scrape time.
	MetricGoHeapInuse = "go_heap_inuse_bytes"
	MetricGoGCCycles  = "go_gc_cycles_total"

	// Request-tracing families (registered only when tracing is on).
	// MetricServerStageLatencyPrefix is the per-stage latency
	// histogram family: srv_stage_latency_ns{stage="commit"}.
	MetricServerStageLatencyPrefix = "srv_stage_latency_ns"
	// MetricServerRequestLatencyPrefix is the per-tenant end-to-end
	// latency histogram family: srv_request_latency_ns{vol="0"}.
	MetricServerRequestLatencyPrefix = "srv_request_latency_ns"
	// MetricServerTraceExemplars counts spans published to the
	// exemplar ring (over-threshold or client-forced).
	MetricServerTraceExemplars = "srv_trace_exemplars_total"

	// NBD frontend (internal/nbd) families.
	// MetricNBDConns is the open NBD connection gauge.
	MetricNBDConns = "nbd_connections_open"
	// MetricNBDHandshakes counts completed handshakes (connections
	// that reached the transmission phase).
	MetricNBDHandshakes = "nbd_handshakes_total"
	// MetricNBDRequestsPrefix is the per-command request family:
	// nbd_requests_total{cmd="write"}.
	MetricNBDRequestsPrefix = "nbd_requests_total"
	// MetricNBDBytesIn / MetricNBDBytesOut count NBD WRITE payload
	// bytes received and READ payload bytes sent.
	MetricNBDBytesIn  = "nbd_bytes_in_total"
	MetricNBDBytesOut = "nbd_bytes_out_total"
	// MetricNBDRMWWrites counts unaligned writes served with a
	// read-modify-write cycle by the alignment layer.
	MetricNBDRMWWrites = "nbd_rmw_writes_total"
	// MetricNBDErrors counts NBD error replies (negotiation and
	// transmission).
	MetricNBDErrors = "nbd_errors_total"
)

// Window is one closed time-series window: the cumulative value of
// every scalar instrument at the window end, plus the change across
// the window (for gauges the "delta" is the end-of-window sample).
// Names, Values, and Deltas are parallel; Names shares backing with
// the recorder and must be treated as read-only.
type Window struct {
	Index int64    `json:"window"`
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`

	Names  []string `json:"-"`
	Values []int64  `json:"-"`
	Deltas []int64  `json:"-"`
}

// Value returns the cumulative value of a metric at the window end.
func (w *Window) Value(name string) (int64, bool) {
	for i, n := range w.Names {
		if n == name {
			return w.Values[i], true
		}
	}
	return 0, false
}

// Delta returns the metric's change across the window (the sampled
// value for gauges).
func (w *Window) Delta(name string) (int64, bool) {
	for i, n := range w.Names {
		if n == name {
			return w.Deltas[i], true
		}
	}
	return 0, false
}

// Duration returns the window width.
func (w *Window) Duration() sim.Time { return w.End - w.Start }

// Recorder snapshots every scalar instrument of a registry at a fixed
// interval of simulated time and keeps a bounded ring of windows.
//
// TickTo must be called from the single thread that owns the
// instrumented state (the simulator's standalone store calls it inside
// advance; engine shard stores attach no recorder); Windows and the
// exporters may be called concurrently with ticking.
type Recorder struct {
	reg      *Registry
	interval sim.Time
	max      int

	mu       sync.Mutex
	ticker   sim.Ticker
	started  bool
	index    int64
	scalars  []Instrument
	names    []string
	prev     []int64
	windows  []Window
	dropped  int64
	finished bool
}

// NewRecorder creates a recorder over reg with the given window width
// and history bound.
func NewRecorder(reg *Registry, interval sim.Time, maxWindows int) *Recorder {
	if interval <= 0 {
		interval = 10 * sim.Millisecond
	}
	if maxWindows <= 0 {
		maxWindows = 4096
	}
	return &Recorder{reg: reg, interval: interval, max: maxWindows}
}

// TickTo advances the recorder to the current simulated time, closing
// any window whose boundary has passed. Nil-safe; the fast path when
// no boundary passed is one comparison.
func (r *Recorder) TickTo(now sim.Time) {
	if r == nil {
		return
	}
	if r.started && !r.ticker.Due(now) {
		return
	}
	r.tick(now)
}

func (r *Recorder) tick(now sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		// The first event anchors the window grid at time zero so that
		// window boundaries are multiples of the interval.
		r.ticker = sim.NewTicker(0, r.interval)
		r.ticker.FastForward(now)
		r.started = true
		return
	}
	if !r.ticker.Due(now) {
		return // another caller closed the boundary first
	}
	// All activity since the previous snapshot lands in the first
	// window being closed; later elapsed windows would be empty, so the
	// ticker fast-forwards over them instead of emitting zeros.
	end := r.ticker.Next()
	r.close(end)
	r.ticker.Advance()
	r.ticker.FastForward(now)
}

// Finish closes the partial window ending at now, capturing tail
// activity after the last boundary. Call once when a run completes
// (Store.Drain does). Nil-safe and idempotent for an unchanged clock.
func (r *Recorder) Finish(now sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		r.ticker = sim.NewTicker(0, r.interval)
		r.started = true
	}
	if r.ticker.Due(now) {
		r.close(r.ticker.Next())
		r.ticker.Advance()
		r.ticker.FastForward(now)
	}
	if len(r.windows) > 0 && now <= r.windows[len(r.windows)-1].End {
		return
	}
	if now <= 0 {
		return
	}
	r.close(now)
}

// close snapshots the registry and appends the window ending at end.
// Caller holds r.mu.
func (r *Recorder) close(end sim.Time) {
	scalars := r.reg.Scalars()
	// Instruments register append-only, so a longer list extends the
	// previous one; new instruments delta from zero.
	if len(scalars) > len(r.scalars) {
		for _, in := range scalars[len(r.scalars):] {
			r.names = append(r.names, in.Name())
			r.prev = append(r.prev, 0)
		}
		r.scalars = scalars
	}
	start := r.ticker.Next() - r.interval
	if len(r.windows) > 0 && r.windows[len(r.windows)-1].End > start {
		start = r.windows[len(r.windows)-1].End
	}
	w := Window{
		Index:  r.index,
		Start:  start,
		End:    end,
		Names:  r.names[:len(r.scalars)],
		Values: make([]int64, len(r.scalars)),
		Deltas: make([]int64, len(r.scalars)),
	}
	for i, in := range r.scalars {
		v := in.Load()
		w.Values[i] = v
		if in.Cumulative() {
			w.Deltas[i] = v - r.prev[i]
		} else {
			w.Deltas[i] = v
		}
		r.prev[i] = v
	}
	r.index++
	r.windows = append(r.windows, w)
	if len(r.windows) > r.max {
		n := copy(r.windows, r.windows[len(r.windows)-r.max:])
		r.windows = r.windows[:n]
		r.dropped++
	}
}

// Windows returns the recorded windows, oldest first.
func (r *Recorder) Windows() []Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Window(nil), r.windows...)
}

// Dropped returns how many windows were evicted by the history bound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
