// Package server is the network block-service layer: a TCP front-end
// that multiplexes many tenant volumes onto one shared ADAPT array.
// Each connection speaks the length-prefixed binary protocol from
// internal/server/wire (READ/WRITE/TRIM/FLUSH/STAT with request IDs
// for out-of-order completion). Per-tenant admission control bounds
// inflight ops with typed backpressure instead of unbounded queuing,
// and per-shard lock-free leader/follower group commits coalesce
// small writes into chunk-aligned batches whose deadline mirrors the
// paper's SLA-driven padding window. The package also provides the
// matching Go client (Client) used by cmd/adaptload and the tests.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/prototype"
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
	// DataDir, when set, backs each volume's payload plane with a
	// vol-N.dat file in this directory: boot loads existing bytes,
	// every WRITE goes through to the file, and an fsync precedes the
	// ack (once per group commit on the batched path). A manifest.json
	// pins the volume geometry so a reboot with a different carve-up is
	// rejected instead of silently shearing tenants. Empty keeps the
	// data plane RAM-only, as before.
	DataDir string
	// MaxInflight bounds admitted inflight ops per volume; further
	// requests are rejected with StatusBackpressure (default 64).
	MaxInflight int
	// Batch enables per-shard group commit for WRITE requests.
	Batch bool
	// BatchTimeout is the group-commit deadline: the longest a batched
	// write may wait for its chunk to fill — the serving-layer
	// equivalent of the paper's aggregation (padding) SLA. Default: the
	// store's SLA window, read as wall time.
	BatchTimeout time.Duration
	// BatchBlocks is the group-commit size target in blocks (default:
	// the store's chunk size, so a full batch fills a whole chunk).
	BatchBlocks int
	// IdleTimeout closes a connection that sends no request for this
	// long (default 5m; negative disables).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (default 30s; negative
	// disables).
	WriteTimeout time.Duration
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
	// committers holds one lock-free group committer per engine shard;
	// nil when batching is off. Writes route to the committer owning
	// their shard, so group commits stay shard-local and fill that
	// shard's open chunk.
	committers []*shardCommitter
	met        metrics
	// trace is the request-tracing runtime; nil when disabled, making
	// every tracing touchpoint on the request path a single nil check.
	trace *traceState

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	// drainCh closes when Shutdown starts.
	drainCh chan struct{}

	connWG sync.WaitGroup
	// batWG counts live group-commit leaders.
	batWG sync.WaitGroup

	requests  atomic.Int64
	responses atomic.Int64
	// commitSeq numbers group commits across all committers for the
	// per-volume batch-count dedupe.
	commitSeq atomic.Int64
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
	if cfg.BatchBlocks < 1 {
		cfg.BatchBlocks = store.ChunkBlocks
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = time.Duration(store.SLAWindow)
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		conns:   make(map[net.Conn]struct{}),
		drainCh: make(chan struct{}),
	}
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
		for b := int64(1); b <= int64(cfg.BatchBlocks); b *= 2 {
			bounds = append(bounds, b)
		}
		s.met.batchFill = ts.Registry.NewHistogram(telemetry.MetricServerBatchFill,
			"Blocks per group commit", bounds)
	}
	if cfg.Trace.Enabled {
		s.trace = newTraceState(cfg.Trace, cfg.Volumes, cfg.Telemetry)
	}
	s.vols = make([]*volume, cfg.Volumes)
	for i := range s.vols {
		s.vols[i] = newVolume(uint32(i), int64(i)*volBlocks, volBlocks, store.BlockSize, cfg.MaxInflight)
	}
	if cfg.DataDir != "" {
		if err := s.openVolumeFiles(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	if cfg.Batch {
		s.committers = make([]*shardCommitter, cfg.Engine.Shards())
		for i := range s.committers {
			s.committers[i] = newShardCommitter(s, i, cfg.BatchTimeout, cfg.BatchBlocks)
		}
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
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			// Accepted as Shutdown closed the listener. Shutdown set
			// draining before it took mu, so counting this connection
			// could race its connWG.Wait; it has sent nothing we read.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.met.conns.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: new requests are refused with
// StatusShuttingDown, every already-received request is completed and
// acked, pending group commits are applied, and connections close. The
// engine is left open for the caller.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.drainCh)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		// Unblock readers parked on idle connections; in-flight work
		// still completes and is acked before the connection closes.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		// Every conn reader waits for its pending responses, and a
		// batched write responds only from its commit's done callback —
		// so once the readers exit, every enqueued write has committed
		// and no new leaders can spawn.
		s.connWG.Wait()
		s.batWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every ack already carried its own fsync; this close is
		// bookkeeping, not the durability point.
		return s.closeVolumeFiles()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleConn runs one connection: a reader loop decoding requests and a
// writer goroutine serializing (possibly out-of-order) responses.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.met.conns.Add(-1)
		conn.Close()
	}()

	tr := s.trace
	var ring *telemetry.SpanRing
	if tr != nil {
		ring = tr.addRing()
		defer tr.retireRing(ring)
	}
	respCh := make(chan outFrame, 4*s.cfg.MaxInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(conn, respCh, ring)
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	var pending sync.WaitGroup
	for {
		// Arm the idle deadline only when the next read will hit the
		// socket; requests already buffered don't reset idleness and
		// skip the per-op deadline bookkeeping.
		if s.cfg.IdleTimeout > 0 && br.Buffered() == 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			// Shutdown flips draining and then expires every read
			// deadline; if that landed between this loop's last read and
			// the arm above, the arm just undid it and the read below
			// would park for the idle timeout. Checking after arming
			// closes the window whichever side ran last.
			if s.draining.Load() {
				conn.SetReadDeadline(time.Now())
			}
		}
		// Frame read and decode are split so the span clock starts at
		// frame arrival and the decode stage excludes network idle time.
		frame, err := wire.ReadFrame(br)
		if err != nil {
			break
		}
		var sp *telemetry.Span
		if tr != nil {
			sp = tr.newSpan()
			sp.Start = s.eng.Now()
		}
		req, err := wire.DecodeRequestOwned(frame)
		if err != nil {
			// The stream cannot be trusted past a protocol error, so the
			// connection drains and closes.
			if sp != nil {
				tr.drop(sp)
			}
			break
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
		pending.Add(1)
		delivered := false
		respond := func(resp *wire.Response) {
			if delivered {
				panic("server: double response to one request")
			}
			delivered = true
			if sp != nil {
				sp.Status = uint8(resp.Status)
			}
			respCh <- outFrame{buf: wire.AppendResponse(nil, resp), sp: sp}
			pending.Done()
		}
		s.dispatch(req, sp, respond)
	}
	pending.Wait()
	close(respCh)
	<-writerDone
}

// outFrame pairs an encoded response with its span (nil when tracing
// is off), so the writer can finish the span after the socket write.
type outFrame struct {
	buf []byte
	sp  *telemetry.Span
}

// connWriter writes encoded response frames, flushing when the queue
// momentarily empties. After a write failure it keeps draining the
// channel so responders never block on a dead connection. Spans finish
// at flush time, after their bytes hit the socket.
func (s *Server) connWriter(conn net.Conn, respCh <-chan outFrame, ring *telemetry.SpanRing) {
	buf := make([]byte, 0, 64<<10)
	var spans []*telemetry.Span
	broken := false
	flush := func() {
		if !broken && len(buf) > 0 {
			if s.cfg.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			if _, err := conn.Write(buf); err != nil {
				broken = true
			}
		}
		buf = buf[:0]
		if len(spans) > 0 {
			now := s.eng.Now()
			for _, sp := range spans {
				s.trace.finish(sp, now, ring)
			}
			spans = spans[:0]
		}
	}
	for of := range respCh {
		if of.sp != nil {
			spans = append(spans, of.sp)
		}
		if broken {
			flush() // finish spans even on a dead connection
			continue
		}
		buf = append(buf, of.buf...)
		s.responses.Add(1)
		if len(respCh) == 0 || len(buf) >= 48<<10 {
			flush()
		}
	}
	flush()
}

// errResp builds a non-OK response carrying the detail as payload.
func errResp(req *wire.Request, status wire.Status, detail string) *wire.Response {
	return &wire.Response{Op: req.Op, Status: status, ID: req.ID, Payload: []byte(detail)}
}

func okResp(req *wire.Request) *wire.Response {
	return &wire.Response{Op: req.Op, Status: wire.StatusOK, ID: req.ID}
}

// dispatch routes one decoded request. respond must be called exactly
// once, possibly from another goroutine (batched writes). sp is the
// request's trace span, nil when tracing is off.
func (s *Server) dispatch(req wire.Request, sp *telemetry.Span, respond func(*wire.Response)) {
	s.requests.Add(1)
	s.met.reqs[req.Op].Inc()
	if s.draining.Load() {
		respond(errResp(&req, wire.StatusShuttingDown, "server draining"))
		return
	}
	if req.Op == wire.OpStat {
		respond(&wire.Response{
			Op: req.Op, Status: wire.StatusOK, ID: req.ID,
			Payload: wire.AppendStats(nil, s.stats()),
		})
		return
	}
	if req.Volume >= uint32(len(s.vols)) {
		respond(errResp(&req, wire.StatusBadVolume,
			fmt.Sprintf("volume %d of %d", req.Volume, len(s.vols))))
		return
	}
	vol := s.vols[req.Volume]
	if !vol.admit() {
		s.met.backpressure.Inc()
		respond(errResp(&req, wire.StatusBackpressure,
			fmt.Sprintf("volume %d inflight limit %d", vol.id, cap(vol.sem))))
		return
	}
	if sp != nil {
		sp.MarkAt(telemetry.StageAdmission, s.eng.Now())
	}
	finish := func(resp *wire.Response) {
		vol.release()
		respond(resp)
	}
	switch req.Op {
	case wire.OpWrite:
		s.handleWrite(vol, req, sp, finish)
	case wire.OpRead:
		s.handleRead(vol, req, sp, finish)
	case wire.OpTrim:
		s.handleTrim(vol, req, sp, finish)
	case wire.OpFlush:
		s.handleFlush(vol, req, sp, finish)
	default:
		finish(errResp(&req, wire.StatusBadRequest, "unhandled opcode"))
	}
}

func (s *Server) handleWrite(vol *volume, req wire.Request, sp *telemetry.Span, finish func(*wire.Response)) {
	if req.Count < 1 {
		finish(errResp(&req, wire.StatusBadRequest, "zero block count"))
		return
	}
	if !vol.inRange(req.LBA, req.Count) {
		finish(errResp(&req, wire.StatusOutOfRange,
			fmt.Sprintf("write [%d,%d) beyond %d blocks", req.LBA, req.LBA+uint64(req.Count), vol.blocks)))
		return
	}
	if want := int(req.Count) * vol.blockBytes; len(req.Payload) != want {
		finish(errResp(&req, wire.StatusBadRequest,
			fmt.Sprintf("payload %d bytes, want %d", len(req.Payload), want)))
		return
	}
	s.writeCore(vol, int64(req.LBA), req.Payload, req.Flags&wire.FlagNoBatch != 0, sp, func(err error) {
		if err != nil {
			finish(errResp(&req, wire.StatusInternal, err.Error()))
			return
		}
		finish(okResp(&req))
	})
}

func (s *Server) handleRead(vol *volume, req wire.Request, sp *telemetry.Span, finish func(*wire.Response)) {
	if req.Count < 1 {
		finish(errResp(&req, wire.StatusBadRequest, "zero block count"))
		return
	}
	if !vol.inRange(req.LBA, req.Count) {
		finish(errResp(&req, wire.StatusOutOfRange,
			fmt.Sprintf("read [%d,%d) beyond %d blocks", req.LBA, req.LBA+uint64(req.Count), vol.blocks)))
		return
	}
	payload, err := s.readCore(vol, int64(req.LBA), int(req.Count), sp)
	if err != nil {
		finish(errResp(&req, wire.StatusInternal, err.Error()))
		return
	}
	finish(&wire.Response{Op: req.Op, Status: wire.StatusOK, ID: req.ID, Count: req.Count, Payload: payload})
}

func (s *Server) handleTrim(vol *volume, req wire.Request, sp *telemetry.Span, finish func(*wire.Response)) {
	if req.Count < 1 {
		finish(errResp(&req, wire.StatusBadRequest, "zero block count"))
		return
	}
	if !vol.inRange(req.LBA, req.Count) {
		finish(errResp(&req, wire.StatusOutOfRange,
			fmt.Sprintf("trim [%d,%d) beyond %d blocks", req.LBA, req.LBA+uint64(req.Count), vol.blocks)))
		return
	}
	if err := s.trimCore(vol, int64(req.LBA), int(req.Count), sp); err != nil {
		finish(errResp(&req, wire.StatusInternal, err.Error()))
		return
	}
	finish(okResp(&req))
}

func (s *Server) handleFlush(vol *volume, req wire.Request, sp *telemetry.Span, finish func(*wire.Response)) {
	if err := s.flushCore(vol, sp); err != nil {
		finish(errResp(&req, wire.StatusInternal, err.Error()))
		return
	}
	finish(okResp(&req))
}

// stats assembles the STAT payload: geometry (so clients can
// self-configure), engine traffic accounting, server counters, and
// per-tenant totals.
func (s *Server) stats() []wire.Stat {
	cfg := s.eng.Config()
	est := s.eng.Stats()
	batch := int64(0)
	if s.cfg.Batch {
		batch = 1
	}
	degraded := int64(0)
	if s.eng.Degraded() {
		degraded = 1
	}
	out := []wire.Stat{
		{Name: "geom_volumes", Value: int64(len(s.vols))},
		{Name: "geom_vol_blocks", Value: s.vols[0].blocks},
		{Name: "geom_block_bytes", Value: int64(cfg.BlockSize)},
		{Name: "geom_chunk_blocks", Value: int64(cfg.ChunkBlocks)},
		{Name: "geom_batch", Value: batch},
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
