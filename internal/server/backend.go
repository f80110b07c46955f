package server

import (
	"adapt/internal/server/bufpool"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// VolumeBackend is the protocol-agnostic surface of the volume
// manager: everything a wire frontend needs to serve block requests
// against the tenant volumes — geometry, blocking admission, the block
// ops with their durability discipline (an acked write is fsync'd when
// a data dir is attached), and the span lifecycle for request tracing.
//
// *Server implements it, and both frontends ride the one
// implementation: the bespoke wire protocol (this package's
// handleConn/dispatch) and the NBD frontend (internal/nbd) are peers
// over the same validated ops, volumes, committers, admission
// semaphores, and trace runtime, on the same connection runtime
// (conn.go). Writes entering through any frontend coalesce into the
// same per-shard group commits.
//
// Ops return the package's typed sentinels (ErrBadVolume,
// ErrOutOfRange, ErrBadRequest, ErrShuttingDown) so each frontend can
// map failures onto its own wire status space.
type VolumeBackend interface {
	// Volumes is the tenant volume count; VolumeBlocks the per-volume
	// LBA count; BlockBytes the block size every op is denominated in.
	Volumes() int
	VolumeBlocks() int64
	BlockBytes() int

	// Now is the engine clock spans are stamped on.
	Now() sim.Time

	// Acquire takes one of vol's inflight slots, blocking until a slot
	// frees or the server drains (ErrShuttingDown). Each Acquire must
	// be paired with Release after the op's reply is on the wire.
	Acquire(vol uint32) error
	Release(vol uint32)

	// ReadBlocks returns a copy of blocks payload bytes starting at the
	// volume-relative lba, after the engine accounts the read. The
	// copy is the caller's; once done with it the caller may hand it to
	// bufpool.Put, and must not touch it after.
	ReadBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) ([]byte, error)
	// WriteBlocks commits a chunk of block-aligned payload at the
	// volume-relative lba and calls done exactly once when the write is
	// acked — possibly from another goroutine, after the group commit
	// that carried it. An acked write is durable when the server runs
	// with a data dir (fsync-before-ack). The payload has been written
	// to the volume's store by the time done runs, and not before: the
	// caller keeps it intact until then, and may release it in done.
	WriteBlocks(vol uint32, lba int64, payload []byte, sp *telemetry.Span, done func(error))
	// TrimBlocks discards blocks starting at the volume-relative lba.
	TrimBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) error
	// Flush is the write barrier: every write acked before the call is
	// durable when it returns (group commits forced, backing file
	// fsync'd).
	Flush(vol uint32, sp *telemetry.Span) error

	// NewSpan starts a request span stamped on the engine clock, or nil
	// when tracing is off (every span argument above is nil-safe).
	// FinishSpan completes it once the reply writer has put its bytes on
	// the socket and stamped its respond stage (Replies, one clock read
	// per flush), publishing to ring when the span is exemplar-worthy.
	// Rings come from OpenSpanRing per connection and must be retired with
	// CloseSpanRing; both are nil-safe no-ops when tracing is off.
	NewSpan() *telemetry.Span
	FinishSpan(sp *telemetry.Span, ring *telemetry.SpanRing)
	DropSpan(sp *telemetry.Span)
	OpenSpanRing() *telemetry.SpanRing
	CloseSpanRing(r *telemetry.SpanRing)
}

// Server implements VolumeBackend; the compiler holds it to that.
var _ VolumeBackend = (*Server)(nil)

// BlockBytes returns the block size in bytes.
func (s *Server) BlockBytes() int { return s.eng.Config().BlockSize }

// Now returns the engine clock.
func (s *Server) Now() sim.Time { return s.eng.Now() }

// vol resolves a volume ID.
func (s *Server) vol(id uint32) (*volume, error) {
	if id >= uint32(len(s.vols)) {
		return nil, ErrBadVolume
	}
	return s.vols[id], nil
}

// Acquire blocks for one of vol's inflight slots. Unlike the wire
// frontend's fail-fast admit (which maps a full semaphore to
// StatusBackpressure), frontends without a backpressure vocabulary —
// NBD has none — park here and let TCP carry the pushback.
func (s *Server) Acquire(vol uint32) error {
	v, err := s.vol(vol)
	if err != nil {
		return err
	}
	select {
	case v.sem <- struct{}{}:
		if s.lc.draining.Load() {
			<-v.sem
			return ErrShuttingDown
		}
		return nil
	case <-s.lc.drainCh:
		return ErrShuttingDown
	}
}

// Release frees an Acquired slot.
func (s *Server) Release(vol uint32) {
	if v, err := s.vol(vol); err == nil {
		v.release()
	}
}

// ReadBlocks implements VolumeBackend over readCore, into a buffer
// from bufpool.
func (s *Server) ReadBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) ([]byte, error) {
	v, err := s.vol(vol)
	if err == nil {
		err = v.check(lba, blocks)
	}
	if err != nil {
		return nil, err
	}
	buf, err := s.readCore(bufpool.Get(blocks * v.blockBytes)[:0], v, lba, blocks, sp)
	if err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// WriteBlocks implements VolumeBackend over writeCore. The payload
// must be a whole number of blocks; done owns the payload's fate (it
// may be retained until the group commit fires).
func (s *Server) WriteBlocks(vol uint32, lba int64, payload []byte, sp *telemetry.Span, done func(error)) {
	v, err := s.vol(vol)
	if err == nil && len(payload)%v.blockBytes != 0 {
		err = ErrBadRequest
	}
	if err == nil {
		err = v.check(lba, len(payload)/v.blockBytes)
	}
	if err != nil {
		done(err)
		return
	}
	s.writeCore(v, lba, payload, sp, done)
}

// TrimBlocks implements VolumeBackend over trimCore.
func (s *Server) TrimBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) error {
	v, err := s.vol(vol)
	if err == nil {
		err = v.check(lba, blocks)
	}
	if err != nil {
		return err
	}
	return s.trimCore(v, lba, blocks, sp)
}

// Flush implements VolumeBackend over flushCore.
func (s *Server) Flush(vol uint32, sp *telemetry.Span) error {
	v, err := s.vol(vol)
	if err != nil {
		return err
	}
	return s.flushCore(v, sp)
}

// NewSpan takes a zeroed span from the pool and starts it on the engine
// clock; nil when tracing is off.
func (s *Server) NewSpan() *telemetry.Span {
	if s.trace == nil {
		return nil
	}
	sp := s.trace.pool.Get().(*telemetry.Span)
	sp.Start = s.eng.Now()
	return sp
}

// FinishSpan completes a span after its response hit the socket.
func (s *Server) FinishSpan(sp *telemetry.Span, ring *telemetry.SpanRing) {
	if s.trace == nil || sp == nil {
		return
	}
	s.trace.finish(sp, ring)
}

// DropSpan discards an unpublished span (e.g. after a decode error).
func (s *Server) DropSpan(sp *telemetry.Span) {
	if s.trace == nil || sp == nil {
		return
	}
	s.trace.drop(sp)
}

// OpenSpanRing registers a fresh per-connection exemplar ring; nil
// when tracing is off.
func (s *Server) OpenSpanRing() *telemetry.SpanRing {
	tr := s.trace
	if tr == nil {
		return nil
	}
	r := telemetry.NewSpanRing(ringCap)
	tr.mu.Lock()
	tr.rings[r] = struct{}{}
	tr.mu.Unlock()
	return r
}

// CloseSpanRing retires a closing connection's ring, moving its
// exemplars into the retired ring so they survive the connection.
func (s *Server) CloseSpanRing(r *telemetry.SpanRing) {
	tr := s.trace
	if tr == nil || r == nil {
		return
	}
	spans := r.Snapshot(nil)
	tr.mu.Lock()
	delete(tr.rings, r)
	tr.mu.Unlock()
	for _, sp := range spans {
		tr.retired.Publish(sp)
	}
}

// writeCore is the one write path, shared by every frontend:
// per-tenant accounting, then the shard's group committer, which writes
// the payload through to the volume, commits it to the engine, syncs
// the volume file and only then acks. done fires exactly once with the
// ack.
func (s *Server) writeCore(vol *volume, lba int64, payload []byte, sp *telemetry.Span, done func(error)) {
	vol.writes.Add(1)
	vol.writeBlocks.Add(int64(len(payload) / vol.blockBytes))
	s.met.bytesIn.Add(int64(len(payload)))
	s.committers[s.eng.ShardOf(vol.base+lba)].enqueue(&commitReq{
		vol:     vol,
		lba:     lba,
		blocks:  len(payload) / vol.blockBytes,
		payload: payload,
		sp:      sp,
		done:    done,
	})
}

// readCore is the read path shared by every frontend: the engine's
// read accounting, then one read out of the volume's store, appended
// to dst.
func (s *Server) readCore(dst []byte, vol *volume, lba int64, blocks int, sp *telemetry.Span) ([]byte, error) {
	vol.reads.Add(1)
	vol.readBlocks.Add(int64(blocks))
	t, err := s.eng.ReadTimed(vol.base+lba, blocks)
	markEngine(sp, t)
	if err != nil {
		return dst, err
	}
	dst, err = vol.appendData(dst, lba, blocks)
	if err == nil {
		s.met.bytesOut.Add(int64(blocks * vol.blockBytes))
	}
	return dst, err
}

// trimCore is the trim path shared by every frontend.
func (s *Server) trimCore(vol *volume, lba int64, blocks int, sp *telemetry.Span) error {
	vol.trims.Add(1)
	vol.trimBlocks.Add(int64(blocks))
	t, err := s.eng.TrimTimed(vol.base+lba, blocks)
	markEngine(sp, t)
	return err
}

// flushCore is the flush barrier shared by every frontend: wait out
// every committer (a volume's writes can land on any shard's
// committer), then fsync the volume's backing file.
func (s *Server) flushCore(vol *volume, sp *telemetry.Span) error {
	vol.flushes.Add(1)
	for _, c := range s.committers {
		c.flush()
	}
	if sp != nil {
		// FLUSH waits out the group commits in flight; charge it to the
		// batch stage.
		sp.MarkAt(telemetry.StageBatch, s.eng.Now())
	}
	// Belt over the per-ack suspenders: a FLUSH leaves the volume's
	// file clean even if a write raced the last sync.
	return vol.syncData()
}
