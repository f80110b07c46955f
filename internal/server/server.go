// Package server is the network block-service layer: a TCP front-end
// that multiplexes many tenant volumes onto one shared ADAPT array.
// Each connection speaks the length-prefixed binary protocol from
// internal/server/wire (READ/WRITE/TRIM/FLUSH/STAT with request IDs
// for out-of-order completion). Per-tenant admission control bounds
// inflight ops with typed backpressure instead of unbounded queuing,
// and per-shard lock-free leader/follower group commits coalesce the
// writes that arrive while a shard's previous commit is in the engine;
// the store's SLA window is the one aggregation deadline. The package
// also provides the matching Go client (Client) used by cmd/adaptload
// and the tests.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"

	"adapt/internal/gcsched"
	"adapt/internal/prototype"
	"adapt/internal/server/bufpool"
	"adapt/internal/server/wire"
	"adapt/internal/telemetry"
)

// Config describes a block service instance.
type Config struct {
	// Engine is the shared storage engine all volumes land on: a
	// *prototype.Sharded (of one shard or many), or a decorator around
	// one. The server drives it but does not own it: callers Close the
	// engine they built after Shutdown.
	Engine prototype.Ingest
	// Volumes carves the engine's LBA space into this many equal tenant
	// volumes (volume IDs 0..Volumes-1).
	Volumes int
	// DataDir, when set, keeps each volume's payload in a vol-N.dat
	// file in this directory and nowhere else: boot only sizes the file,
	// every WRITE is one pwrite into it, every READ one pread out of it,
	// and an fsync precedes the ack (once per group commit). A
	// manifest.json pins the volume geometry so a reboot with a different
	// carve-up is rejected instead of silently shearing tenants. Empty
	// keeps the payload in a RAM plane per volume, mapped outside the Go
	// heap.
	DataDir string
	// MaxInflight bounds admitted inflight ops per volume; further
	// requests are rejected with StatusBackpressure (default 64).
	MaxInflight int
	// Deprecated: group commit is the only write path; Batch is ignored.
	Batch bool
	// Telemetry, when set, registers server instruments (connections,
	// per-opcode requests, backpressure, batching, bytes) on the same
	// set the engine uses.
	Telemetry *telemetry.Set
	// Trace configures per-request tracing and tail-latency
	// attribution; see TraceConfig.
	Trace TraceConfig
	// GCSched, when set, is the background GC pacer serving this
	// engine; the STAT opcode reports its counters. The server neither
	// owns nor drives it — serve.Build wires the pacer's P999 signal to
	// TailP999 and Stack.Shutdown stops it after the server's drain.
	GCSched *gcsched.Controller
}

// metrics bundles the server's telemetry instruments; every field is
// nil (a no-op) when Config.Telemetry is unset.
type metrics struct {
	conns         *telemetry.Gauge
	reqs          [6]*telemetry.Counter // indexed by wire.Op
	backpressure  *telemetry.Counter
	batches       *telemetry.Counter
	batchedWrites *telemetry.Counter
	bytesIn       *telemetry.Counter
	bytesOut      *telemetry.Counter
	batchFill     *telemetry.Histogram
}

// Server is a multi-tenant block service over one storage engine.
type Server struct {
	cfg  Config
	eng  prototype.Ingest
	vols []*volume
	// committers holds one lock-free group committer per engine shard.
	// Writes route to the committer owning their shard, so group commits
	// stay shard-local and fill that shard's open chunk.
	committers []*shardCommitter
	met        metrics
	// trace is the request-tracing runtime; nil when disabled, making
	// every tracing touchpoint on the request path a single nil check.
	trace *traceState

	// lc is the wire frontend's connection lifecycle, and its draining
	// flag the whole volume manager's: Acquire and dispatch read it.
	lc *Lifecycle
	// batWG counts live group-commit leaders.
	batWG sync.WaitGroup

	requests  atomic.Int64
	responses atomic.Int64
	// commitSeq numbers group commits across all committers for the
	// per-volume batch-count dedupe.
	commitSeq atomic.Int64
	// planeBytes is the RAM plane still mapped; 0 with a data dir.
	planeBytes atomic.Int64
}

// The runtime/metrics behind the go_* gauges: HeapInuse is the heap's
// object bytes plus the free space inside the spans holding them.
var (
	heapInuseMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
)

// readRuntimeMetric returns a gauge callback summing the named uint64
// runtime metrics, read when the gauge is.
func readRuntimeMetric(names ...string) func() int64 {
	return func() int64 {
		samples := make([]rtmetrics.Sample, len(names))
		for i, name := range names {
			samples[i].Name = name
		}
		rtmetrics.Read(samples)
		var sum int64
		for _, sm := range samples {
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				sum += int64(sm.Value.Uint64())
			}
		}
		return sum
	}
}

// New builds a server over the engine. Volume geometry is fixed for the
// server's lifetime: the engine's LBA space is split into Config.Volumes
// equal volumes.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.Volumes < 1 {
		return nil, errors.New("server: need at least one volume")
	}
	store := cfg.Engine.Config()
	volBlocks := store.UserBlocks / int64(cfg.Volumes)
	if volBlocks < 1 {
		return nil, fmt.Errorf("server: %d volumes over %d blocks leaves empty volumes",
			cfg.Volumes, store.UserBlocks)
	}
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = 64
	}
	s := &Server{cfg: cfg, eng: cfg.Engine}
	if ts := cfg.Telemetry; ts != nil {
		s.met.conns = ts.Registry.NewGauge(telemetry.MetricServerConns, "Open client connections")
		for _, op := range []wire.Op{wire.OpRead, wire.OpWrite, wire.OpTrim, wire.OpFlush, wire.OpStat} {
			s.met.reqs[op] = ts.Registry.NewCounter(
				fmt.Sprintf("%s{op=\"%s\"}", telemetry.MetricServerRequestsPrefix, op),
				"Requests received by opcode")
		}
		s.met.backpressure = ts.Registry.NewCounter(telemetry.MetricServerBackpressure,
			"Requests rejected by per-tenant admission control")
		s.met.batches = ts.Registry.NewCounter(telemetry.MetricServerBatches,
			"Group commits")
		s.met.batchedWrites = ts.Registry.NewCounter(telemetry.MetricServerBatchedWrites,
			"WRITE requests committed through group commit")
		s.met.bytesIn = ts.Registry.NewCounter(telemetry.MetricServerBytesIn,
			"WRITE payload bytes received")
		s.met.bytesOut = ts.Registry.NewCounter(telemetry.MetricServerBytesOut,
			"READ payload bytes sent")
		bounds := make([]int64, 0, 8)
		for b := int64(1); b <= int64(store.ChunkBlocks); b *= 2 {
			bounds = append(bounds, b)
		}
		s.met.batchFill = ts.Registry.NewHistogram(telemetry.MetricServerBatchFill,
			"Blocks per group commit", bounds)
		ts.Registry.NewFuncGauge(telemetry.MetricServerPlaneBytes,
			"Bytes of volume data plane mapped outside the Go heap", false, s.planeBytes.Load)
		ts.Registry.NewFuncGauge(telemetry.MetricGoHeapInuse,
			"Go heap bytes in in-use spans", false, readRuntimeMetric(heapInuseMetrics...))
		ts.Registry.NewFuncGauge(telemetry.MetricGoGCCycles,
			"Completed Go GC cycles", true, readRuntimeMetric(gcCyclesMetric))
	}
	s.lc = NewLifecycle(s.met.conns)
	if cfg.Trace.Enabled {
		s.trace = newTraceState(cfg.Trace, cfg.Volumes, cfg.Telemetry)
	}
	s.vols = make([]*volume, cfg.Volumes)
	for i := range s.vols {
		s.vols[i] = newVolume(uint32(i), int64(i)*volBlocks, volBlocks, store.BlockSize, cfg.MaxInflight)
	}
	var err error
	if cfg.DataDir != "" {
		err = s.openVolumeFiles(cfg.DataDir)
	} else {
		err = s.mapPlanes()
	}
	if err != nil {
		s.closeVolumes()
		return nil, err
	}
	s.committers = make([]*shardCommitter, cfg.Engine.Shards())
	for i := range s.committers {
		c := &shardCommitter{srv: s}
		c.lead = c.leadTurn
		s.committers[i] = c
	}
	return s, nil
}

// Volumes returns the number of tenant volumes.
func (s *Server) Volumes() int { return len(s.vols) }

// VolumeBlocks returns the per-volume LBA count, 0 when the server
// holds no volumes (a zero-value or half-built Server must not panic).
func (s *Server) VolumeBlocks() int64 {
	if len(s.vols) == 0 {
		return 0
	}
	return s.vols[0].blocks
}

// Serve accepts connections on ln until Shutdown closes it. It always
// returns a nil error after a graceful Shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.lc.Serve(ln, s.handleConn) }

// Shutdown drains the server: new requests are refused with
// StatusShuttingDown, every already-received request is completed and
// acked, pending group commits are applied, and connections close. The
// engine is left open for the caller.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.lc.drain() {
		return nil
	}
	if err := s.lc.wait(ctx, s.quiesce); err != nil {
		return err
	}
	// An op that still arrives — a frontend drained out of order — fails
	// with ErrShuttingDown instead of reaching a closed file or an
	// unmapped plane. Every ack already carried its own fsync; the close
	// is bookkeeping, not the durability point.
	return s.closeVolumes()
}

// quiesce waits out every admitted op once the connection readers have
// exited. Every op holds one of its volume's admission slots until it
// replies — a wire request from admit, a backend caller's from Acquire,
// which refuses from the drain on — and a batched write replies only
// from its commit's done callback. So once quiesce holds every slot,
// every enqueued write has committed and no new leader can spawn; then
// it waits for the leaders to return.
func (s *Server) quiesce() {
	for _, v := range s.vols {
		for range cap(v.sem) {
			v.sem <- struct{}{}
		}
	}
	s.batWG.Wait()
}

// mapPlanes gives every volume a RAM plane as its byte store: the
// server without a data dir.
func (s *Server) mapPlanes() error {
	for _, v := range s.vols {
		p, err := mapPlane(int(v.size()))
		if err != nil {
			return fmt.Errorf("volume %d: map data plane: %w", v.id, err)
		}
		v.data = p
		s.planeBytes.Add(v.size())
	}
	return nil
}

// closeVolumes closes every volume's byte store, once: each file is
// synced and closed, each plane unmapped.
func (s *Server) closeVolumes() error {
	var errs []error
	for _, v := range s.vols {
		if err := v.closeData(); err != nil {
			errs = append(errs, err)
		}
	}
	s.planeBytes.Store(0)
	return errors.Join(errs...)
}

// handleConn is the wire codec over one connection: read a frame,
// decode it, fill the span, dispatch. Each frame comes from bufpool and
// goes to dispatch, which returns it once the request is done with it.
func (s *Server) handleConn(conn net.Conn) {
	q := NewReplies(conn, s, 4*s.cfg.MaxInflight)
	defer q.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		if br.Buffered() == 0 {
			s.lc.ArmIdle(conn)
		}
		// Frame read and decode are split so the span clock starts at
		// frame arrival and the decode stage excludes network idle time.
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		sp := s.NewSpan()
		req, err := wire.DecodeRequestOwned(frame)
		if err != nil {
			// The stream cannot be trusted past a protocol error, so the
			// connection drains and closes.
			bufpool.Put(frame)
			s.DropSpan(sp)
			return
		}
		if sp != nil {
			sp.ID = req.ID
			sp.Volume = req.Volume
			sp.Op = uint8(req.Op)
			sp.LBA = req.LBA
			sp.Count = req.Count
			sp.Forced = req.Flags&wire.FlagTrace != 0
			sp.MarkAt(telemetry.StageDecode, s.eng.Now())
		}
		s.dispatch(req, frame, sp, q.Begin(sp))
	}
}

// readFrame reads one length-prefixed request frame body into a buffer
// from bufpool. The length prefix is checked against wire.MaxFrame
// before the buffer is taken.
func readFrame(br *bufio.Reader) ([]byte, error) {
	prefix, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d", wire.ErrTooLarge, n)
	}
	br.Discard(4)
	frame := bufpool.Get(int(n))
	if _, err := io.ReadFull(br, frame); err != nil {
		bufpool.Put(frame)
		return nil, err
	}
	return frame, nil
}

// finish sends a request's one response: resp when err is nil,
// otherwise resp's op and id under err's status. Only an internal
// error carries detail text — the client restores a sentinel's from
// the status alone.
func (s *Server) finish(rp *Reply, vol *volume, frame []byte, resp wire.Response, err error) {
	if err != nil {
		resp = wire.Response{Op: resp.Op, Status: statusOf(err), ID: resp.ID}
		if resp.Status == wire.StatusInternal {
			resp.Payload = []byte(err.Error())
		}
	}
	out := wire.AppendResponse(bufpool.Get(wire.ResponseFrameLen(len(resp.Payload)))[:0], &resp)
	s.send(rp, vol, frame, resp.Status, out)
}

// send ends a request: it returns the request's frame to bufpool —
// whatever the op needed of it has been copied out — frees the
// admission slot the request held on vol (nil when it was never
// admitted), and queues out, the encoded response, whose buffer the
// reply writer returns to bufpool.
func (s *Server) send(rp *Reply, vol *volume, frame []byte, status wire.Status, out []byte) {
	bufpool.Put(frame)
	if vol != nil {
		vol.release()
	}
	s.responses.Add(1)
	rp.Send(status, out)
}

// dispatch routes one decoded request onto the validated ops every
// frontend uses. What stays here is what only the wire protocol has:
// STAT, fail-fast admission (a full semaphore is StatusBackpressure,
// where Acquire would park) and the Count-versus-payload check. rp is
// sent exactly once, possibly from another goroutine (a write acks from
// its group commit). sp is the request's trace span, nil when tracing
// is off. frame is the request's pooled frame, which req.Payload aliases;
// every path ends in send, which releases it — a write's only from its
// ack, after the payload has been written to the volume's store.
func (s *Server) dispatch(req wire.Request, frame []byte, sp *telemetry.Span, rp *Reply) {
	s.requests.Add(1)
	s.met.reqs[req.Op].Inc()
	// resp is the bare OK; never reassigned, so the write's ack closure
	// holds a copy instead of moving it to the heap for every request.
	resp := wire.Response{Op: req.Op, ID: req.ID}
	if s.lc.draining.Load() {
		s.finish(rp, nil, frame, resp, ErrShuttingDown)
		return
	}
	if req.Op == wire.OpStat {
		s.finish(rp, nil, frame, wire.Response{Op: req.Op, ID: req.ID, Payload: wire.AppendStats(nil, s.stats())}, nil)
		return
	}
	vol, err := s.vol(req.Volume)
	if err != nil {
		s.finish(rp, nil, frame, resp, err)
		return
	}
	if !vol.admit() {
		s.met.backpressure.Inc()
		s.finish(rp, nil, frame, resp, ErrBackpressure)
		return
	}
	if sp != nil {
		sp.MarkAt(telemetry.StageAdmission, s.eng.Now())
	}
	lba, blocks := int64(req.LBA), int(req.Count)
	switch req.Op {
	case wire.OpWrite:
		if len(req.Payload) != blocks*vol.blockBytes {
			s.finish(rp, vol, frame, resp, ErrBadRequest)
			return
		}
		s.WriteBlocks(req.Volume, lba, req.Payload, sp, func(err error) {
			s.finish(rp, vol, frame, resp, err)
		})
	case wire.OpRead:
		out, err := s.readReply(vol, req, sp)
		if err != nil {
			s.finish(rp, vol, frame, resp, err)
			return
		}
		s.send(rp, vol, frame, wire.StatusOK, out)
	case wire.OpTrim:
		s.finish(rp, vol, frame, resp, s.TrimBlocks(req.Volume, lba, blocks, sp))
	case wire.OpFlush:
		s.finish(rp, vol, frame, resp, s.Flush(req.Volume, sp))
	default:
		s.finish(rp, vol, frame, resp, ErrBadRequest)
	}
}

// readReply encodes a READ's OK response into a pooled frame, the
// payload read into it straight from the volume's store.
func (s *Server) readReply(vol *volume, req wire.Request, sp *telemetry.Span) ([]byte, error) {
	lba, blocks := int64(req.LBA), int(req.Count)
	if err := vol.check(lba, blocks); err != nil {
		return nil, err
	}
	n := blocks * vol.blockBytes
	out := wire.AppendResponseHeader(bufpool.Get(wire.ResponseFrameLen(n))[:0],
		&wire.Response{Op: req.Op, ID: req.ID, Count: req.Count}, n)
	out, err := s.readCore(out, vol, lba, blocks, sp)
	if err != nil {
		bufpool.Put(out)
		return nil, err
	}
	return out, nil
}

// stats assembles the STAT payload: geometry (so clients can
// self-configure), engine traffic accounting, server counters, and
// per-tenant totals.
func (s *Server) stats() []wire.Stat {
	cfg := s.eng.Config()
	est := s.eng.Stats()
	degraded := int64(0)
	if s.eng.Degraded() {
		degraded = 1
	}
	out := []wire.Stat{
		{Name: "geom_volumes", Value: int64(len(s.vols))},
		{Name: "geom_vol_blocks", Value: s.vols[0].blocks},
		{Name: "geom_block_bytes", Value: int64(cfg.BlockSize)},
		{Name: "geom_chunk_blocks", Value: int64(cfg.ChunkBlocks)},
		{Name: "store_user_blocks", Value: est.UserBlocks},
		{Name: "store_gc_blocks", Value: est.GCBlocks},
		{Name: "store_shadow_blocks", Value: est.ShadowBlocks},
		{Name: "store_padding_blocks", Value: est.PaddingBlocks},
		{Name: "store_padded_chunks", Value: est.PaddedChunks},
		{Name: "store_chunk_flushes", Value: est.ChunkFlushes},
		{Name: "store_parity_chunks", Value: est.ParityChunks},
		{Name: "store_read_blocks", Value: est.ReadBlocks},
		{Name: "store_trimmed_blocks", Value: est.TrimmedBlocks},
		{Name: "store_gc_cycles", Value: est.GCCycles},
		{Name: "store_gc_slices", Value: est.GCSlices},
		{Name: "store_gc_emergency_runs", Value: est.GCEmergencyRuns},
		{Name: "store_free_segments", Value: int64(est.FreeSegments)},
		{Name: "store_wa_milli", Value: int64(est.WA * 1000)},
		{Name: "store_eff_wa_milli", Value: int64(est.EffectiveWA * 1000)},
		{Name: "store_degraded", Value: degraded},
		{Name: "srv_requests", Value: s.requests.Load()},
		{Name: "srv_responses", Value: s.responses.Load()},
	}
	var backpressure, batches, batchedWrites int64
	for _, v := range s.vols {
		backpressure += v.rejected.Load()
		batches += v.batches.Load()
		batchedWrites += v.batchedWrites.Load()
	}
	out = append(out,
		wire.Stat{Name: "srv_backpressure", Value: backpressure},
		wire.Stat{Name: "srv_batches", Value: batches},
		wire.Stat{Name: "srv_batched_writes", Value: batchedWrites},
		wire.Stat{Name: "geom_shards", Value: int64(s.eng.Shards())},
	)
	if s.trace != nil {
		out = append(out, wire.Stat{Name: "srv_tail_p999_ns", Value: s.trace.tail.lastEstimateNS()})
	}
	if ds, ok := s.eng.DurableStats(); ok {
		out = append(out,
			wire.Stat{Name: "durable_synced_segments", Value: ds.SyncedSegments},
			wire.Stat{Name: "durable_fsyncs", Value: ds.Fsyncs},
			wire.Stat{Name: "durable_dir_syncs", Value: ds.DirSyncs},
			wire.Stat{Name: "durable_fsync_p50_ns", Value: ds.FsyncP50NS},
			wire.Stat{Name: "durable_fsync_p99_ns", Value: ds.FsyncP99NS},
			wire.Stat{Name: "durable_fsync_p999_ns", Value: ds.FsyncP999NS},
			wire.Stat{Name: "durable_checkpoints", Value: ds.Checkpoints},
			wire.Stat{Name: "durable_bytes_written", Value: ds.BytesWritten},
			wire.Stat{Name: "durable_recovered_segments", Value: ds.RecoveredSegments},
			wire.Stat{Name: "durable_recovered_blocks", Value: ds.RecoveredBlocks},
		)
	}
	if gs := s.cfg.GCSched; gs != nil {
		gst := gs.Stats()
		out = append(out,
			wire.Stat{Name: "gcsched_slices", Value: gst.Slices},
			wire.Stat{Name: "gcsched_units", Value: gst.Units},
			wire.Stat{Name: "gcsched_tail_skips", Value: gst.TailSkips},
			wire.Stat{Name: "gcsched_queue_skips", Value: gst.QueueSkips},
		)
	}
	if sstats := s.eng.ShardStats(); len(sstats) > 1 {
		for i, st := range sstats {
			p := fmt.Sprintf("shard%d_", i)
			out = append(out,
				wire.Stat{Name: p + "user_blocks", Value: st.UserBlocks},
				wire.Stat{Name: p + "gc_blocks", Value: st.GCBlocks},
				wire.Stat{Name: p + "gc_cycles", Value: st.GCCycles},
				wire.Stat{Name: p + "free_segments", Value: int64(st.FreeSegments)},
				wire.Stat{Name: p + "gc_gate_waits", Value: st.GCGateWaits},
				wire.Stat{Name: p + "gc_gate_wait_ns", Value: st.GCGateWaitNS},
			)
		}
	}
	for _, v := range s.vols {
		p := fmt.Sprintf("vol%d_", v.id)
		out = append(out,
			wire.Stat{Name: p + "writes", Value: v.writes.Load()},
			wire.Stat{Name: p + "write_blocks", Value: v.writeBlocks.Load()},
			wire.Stat{Name: p + "reads", Value: v.reads.Load()},
			wire.Stat{Name: p + "trims", Value: v.trims.Load()},
			wire.Stat{Name: p + "rejected", Value: v.rejected.Load()},
			wire.Stat{Name: p + "batches", Value: v.batches.Load()},
		)
	}
	if tr := s.trace; tr != nil && tr.stageHist[0] != nil {
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			h := tr.stageHist[st]
			p := "trace_" + st.String() + "_"
			out = append(out,
				wire.Stat{Name: p + "count", Value: h.Count()},
				wire.Stat{Name: p + "p50_ns", Value: h.Quantile(0.5)},
				wire.Stat{Name: p + "p99_ns", Value: h.Quantile(0.99)},
				wire.Stat{Name: p + "p999_ns", Value: h.Quantile(0.999)},
			)
		}
	}
	return out
}
