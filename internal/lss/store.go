package lss

import (
	"errors"
	"fmt"

	"adapt/internal/blockdev"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// Slot encoding in segment.lbas: values >= 0 are primary block
// addresses; padSlot marks zero padding; values <= shadowBase encode
// shadow copies (cross-group aggregation) as shadowBase-lba, so that
// crash recovery can restore data from a shadow copy when the lazy
// primary was never flushed.
const (
	padSlot    int64 = -1
	shadowBase int64 = -3
)

// encodeShadow encodes a shadow copy of lba for a segment slot.
func encodeShadow(lba int64) int64 { return shadowBase - lba }

// decodeSlot returns the block address a slot refers to (primary or
// shadow) and whether the slot carries data at all (padding does not).
func decodeSlot(v int64) (lba int64, ok bool) {
	switch {
	case v >= 0:
		return v, true
	case v <= shadowBase:
		return shadowBase - v, true
	default:
		return 0, false
	}
}

type segState uint8

const (
	segFree segState = iota
	segOpen
	segSealed
)

// segment is a fixed-size append-only region of the store.
type segment struct {
	id      int
	group   GroupID
	state   segState
	lbas    []int64 // slot encoding: see padSlot/shadowBase
	vers    []int64 // per-slot append sequence (recovery ordering)
	written int     // slots consumed
	valid   int     // live (mapped) blocks
	born    sim.WriteClock
	sealedW sim.WriteClock
	sealSeq int64 // monotone seal counter; total order for seal ties
}

// group is a segment group (stream). Each group owns at most one open
// segment whose tail chunk buffers incoming blocks.
type group struct {
	id   GroupID
	open *segment
	// armTime is the arrival time of the oldest user-written block in
	// the open chunk that is not yet durable; -1 when no such block
	// exists. The SLA window is measured from armTime.
	armTime sim.Time
	// persisted counts pending slots from the chunk start that are
	// already durable via shadow append.
	persisted int
	// arrivals holds the arrival time of each user block in the open
	// chunk (per slot; -1 for GC/shadow/padding slots), feeding the
	// persistence-latency accounting.
	arrivals []sim.Time
	// latCounted is how many slots from the chunk start already have
	// their latency recorded (shadow-persisted prefix).
	latCounted int
}

type appendKind uint8

const (
	kindUser appendKind = iota
	kindGC
	kindShadow
)

// Store is the log-structured store. It is not safe for concurrent
// use; the prototype wraps it with its own synchronization.
type Store struct {
	cfg     Config
	wm      watermarks
	policy  Policy
	advisor Advisor
	segObs  SegmentObserver
	array   *blockdev.Array
	rng     *sim.RNG

	segments []*segment
	free     []int // free segment ids (LIFO)
	groups   []*group
	mapping  []int64 // lba -> seg.id*segBlocks + slot, or -1

	w   sim.WriteClock
	now sim.Time
	// inGC guards against reentrant GC while cycle code is on the
	// stack (GC migrations allocate through ensureOpen); gc holds the
	// resumable state of the in-flight cycle, which under
	// Config.BackgroundGC may persist, preempted, across user
	// operations until the pacer's next GCStep.
	inGC      bool
	gc        *gcCycle
	degraded  bool  // throttle GC while the array runs degraded
	appendSeq int64 // monotone per-append version for recovery
	sealCount int64 // monotone seal counter feeding segment.sealSeq

	// vidx tracks sealed segments for O(1)-amortized victim selection;
	// maintained unconditionally and consulted by every GC cycle.
	vidx *victimIndex
	// onReclaim, when set, observes every reclaimed victim in selection
	// order (differential tests compare victim sequences through it).
	onReclaim func(segID int)

	segBlocks   int
	chunkBlocks int
	blockBytes  int64

	metrics Metrics
	snaps   []GroupSnapshot // scratch for advisor callbacks

	// sink, when set, observes every chunk flush (the prototype routes
	// these to simulated devices). auditSink is a second, independent
	// observer slot reserved for verification (the checker's byte
	// mirror), so the oracle composes with device models.
	sink      ChunkSink
	auditSink ChunkSink

	// Telemetry hooks; all nil (no-op) until a set attaches via Deps
	// or Reconfigure. tset remembers the attached set so Reconfigure
	// can treat re-attachment as a no-op.
	tset    *telemetry.Set
	tracer  *telemetry.Tracer
	rec     *telemetry.Recorder
	padHist *telemetry.Histogram
	// itv receives GC interference intervals for tail-latency
	// attribution; clock, when set, overrides s.now for telemetry
	// timestamps (the prototype injects its wall-derived clock, which
	// keeps advancing during a synchronous GC cycle while s.now is
	// frozen at the triggering op's timestamp).
	itv   *telemetry.IntervalLog
	clock func() sim.Time
	// shard is this store's shard id when it is one partition of a
	// sharded engine, -1 standalone. Telemetry metric names gain a
	// shard label and GC intervals carry it, so per-shard GC activity
	// stays attributable after aggregation.
	shard int32
	// durable, when set, persists segment lifecycle transitions and
	// flushed chunks (internal/segfile); durableErr latches the first
	// backend failure and fails every subsequent mutation, so no
	// acknowledgement can outrun the durable image.
	durable    DurableLog
	durableErr error
	// gcGate, when set, is invoked at the start of every synchronous
	// GC cycle and the returned release when the cycle ends. The
	// sharded engine serializes cross-shard GC through it so no two
	// shards collect — and saturate the shared device columns — at the
	// same time. Ignored under BackgroundGC (the pacer serializes).
	gcGate func() (release func())
	// recoveredSegments/Blocks record what Recover rebuilt, reported
	// through the tracer when telemetry attaches to a recovered store.
	recoveredSegments int
	recoveredBlocks   int64
}

// ChunkWrite describes one completed chunk write: which group emitted
// it, where it lands in the physical segment space, and its payload
// and padding sizes (they sum to the chunk size). Segment/Chunk
// identify the physical location, so a device model underneath can
// observe overwrites when segments are reclaimed and reused.
type ChunkWrite struct {
	Group        GroupID
	Segment      int // physical segment id
	Chunk        int // chunk index within the segment
	PayloadBytes int64
	PadBytes     int64
}

// ChunkSink observes every chunk flush.
type ChunkSink func(ChunkWrite)

// New builds a store with the given configuration and placement
// policy, wired with at most one Deps. If the policy implements
// Advisor or SegmentObserver those hooks are wired automatically.
func New(cfg Config, p Policy, deps ...Deps) *Store {
	if p == nil {
		panic("lss: nil policy")
	}
	ngroups := p.Groups()
	if ngroups < 1 {
		panic("lss: policy declares no groups")
	}
	cfg = cfg.withDefaults()
	total := cfg.totalSegments(ngroups)
	segBlocks := cfg.SegmentBlocks()

	s := &Store{
		cfg:         cfg,
		wm:          cfg.watermarks(ngroups),
		policy:      p,
		array:       blockdev.NewArray(cfg.DataColumns, cfg.ChunkBytes()),
		rng:         sim.NewRNG(0x5eed),
		segments:    make([]*segment, total),
		free:        make([]int, 0, total),
		groups:      make([]*group, ngroups),
		mapping:     make([]int64, cfg.UserBlocks),
		segBlocks:   segBlocks,
		chunkBlocks: cfg.ChunkBlocks,
		blockBytes:  int64(cfg.BlockSize),
		snaps:       make([]GroupSnapshot, ngroups),
		vidx:        newVictimIndex(total, segBlocks),
		shard:       -1,
	}
	for i := range s.mapping {
		s.mapping[i] = -1
	}
	for i := range s.segments {
		s.segments[i] = &segment{
			id:   i,
			lbas: make([]int64, segBlocks),
			vers: make([]int64, segBlocks),
		}
	}
	// LIFO pop from the end; push ids in reverse so low ids go first.
	for i := total - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	for g := range s.groups {
		s.groups[g] = &group{
			id:       GroupID(g),
			armTime:  -1,
			arrivals: make([]sim.Time, cfg.ChunkBlocks),
		}
	}
	s.metrics.PerGroup = make([]GroupMetrics, ngroups)
	if a, ok := p.(Advisor); ok {
		s.advisor = a
	}
	if o, ok := p.(SegmentObserver); ok {
		s.segObs = o
	}
	s.applyDeps(deps)
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// Policy returns the placement policy in use.
func (s *Store) Policy() Policy { return s.policy }

// Array returns the underlying array accounting model.
func (s *Store) Array() *blockdev.Array { return s.array }

// Metrics returns the live metrics. The caller must treat the result
// as read-only.
func (s *Store) Metrics() *Metrics { return &s.metrics }

// WriteClock returns the number of user blocks written so far.
func (s *Store) WriteClock() sim.WriteClock { return s.w }

// Now returns the current simulated time.
func (s *Store) Now() sim.Time { return s.now }

// teleNow returns the telemetry timestamp: the injected clock when
// set, the logical clock otherwise.
func (s *Store) teleNow() sim.Time {
	if s.clock != nil {
		return s.clock()
	}
	return s.now
}

// FreeSegments returns the current free-pool size.
func (s *Store) FreeSegments() int { return len(s.free) }

// Shard returns the store's shard id, -1 when standalone.
func (s *Store) Shard() int { return int(s.shard) }

// Degraded reports whether degraded-mode GC throttling is active.
// Toggle it through Reconfigure.
func (s *Store) Degraded() bool { return s.degraded }

// TotalSegments returns the physical segment count.
func (s *Store) TotalSegments() int { return len(s.segments) }

// LiveBlocks returns the number of currently mapped LBAs.
func (s *Store) LiveBlocks() int64 {
	var n int64
	for _, seg := range s.segments {
		if seg.state != segFree {
			n += int64(seg.valid)
		}
	}
	return n
}

// ErrBadLBA is returned for out-of-range block addresses.
var ErrBadLBA = errors.New("lss: LBA out of range")

// Write appends blocks user-written blocks starting at lba, advancing
// simulated time to now first. Multi-block requests are placed block
// by block, as in the paper's 4 KiB-granularity model.
func (s *Store) Write(lba int64, blocks int, now sim.Time) error {
	for i := 0; i < blocks; i++ {
		if err := s.WriteBlock(lba+int64(i), now); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlock appends one user-written block.
func (s *Store) WriteBlock(lba int64, now sim.Time) error {
	if s.durableErr != nil {
		return s.durableErr
	}
	if lba < 0 || lba >= s.cfg.UserBlocks {
		return fmt.Errorf("%w: %d (capacity %d)", ErrBadLBA, lba, s.cfg.UserBlocks)
	}
	s.advance(now)
	g := s.policy.PlaceUser(lba, s.now, s.w)
	if int(g) < 0 || int(g) >= len(s.groups) {
		panic(fmt.Sprintf("lss: policy %s placed user block in unknown group %d", s.policy.Name(), g))
	}
	s.w++
	s.appendBlock(g, lba, kindUser)
	return nil
}

// Read records a user read; reads do not affect placement but are
// tracked for workload statistics.
func (s *Store) Read(lba int64, blocks int, now sim.Time) {
	s.advance(now)
	s.metrics.ReadBlocks += int64(blocks)
}

// Trim discards blocks (TRIM/UNMAP): their current versions become
// garbage immediately, reclaimable by GC without migration. Trimming
// unmapped blocks is a no-op, as on real devices.
func (s *Store) Trim(lba int64, blocks int, now sim.Time) error {
	if s.durableErr != nil {
		return s.durableErr
	}
	if lba < 0 || lba+int64(blocks) > s.cfg.UserBlocks {
		return fmt.Errorf("%w: trim [%d,%d)", ErrBadLBA, lba, lba+int64(blocks))
	}
	s.advance(now)
	for i := int64(0); i < int64(blocks); i++ {
		if loc := s.mapping[lba+i]; loc >= 0 {
			seg := s.segments[loc/int64(s.segBlocks)]
			seg.valid--
			if seg.state == segSealed {
				s.vidx.onInvalidate(seg)
			}
			s.mapping[lba+i] = -1
			s.metrics.TrimmedBlocks++
		}
	}
	return nil
}

// Drain flushes every open chunk that still buffers blocks, padding
// the remainders. Call once at the end of a replay so that final
// traffic accounting is complete.
func (s *Store) Drain(now sim.Time) {
	s.advance(now)
	for _, gr := range s.groups {
		if s.pending(gr) > 0 {
			s.padFlush(gr, nil, s.now, telemetry.FlushDrain)
		}
	}
	s.durableCheckpoint()
	s.rec.Finish(s.now)
	if s.cfg.Paranoid {
		s.paranoidCheck("at Drain")
	}
}

// unpersistedLBAs returns the block addresses held by gr's
// unpersisted pending slots (the slots a shadow append duplicates).
// Padding cannot occur in pending slots; shadow slots are decoded to
// their underlying address.
func (s *Store) unpersistedLBAs(gr *group) []int64 {
	p := s.pending(gr)
	seg := gr.open
	start := seg.written - p + gr.persisted
	out := make([]int64, 0, p-gr.persisted)
	for i := start; i < seg.written; i++ {
		if lba, ok := decodeSlot(seg.lbas[i]); ok {
			out = append(out, lba)
		}
	}
	return out
}

// pending returns the number of blocks buffered in gr's open chunk.
func (s *Store) pending(gr *group) int {
	if gr.open == nil {
		return 0
	}
	return gr.open.written % s.chunkBlocks
}

// unpersisted returns how many pending blocks lack durability.
func (s *Store) unpersisted(gr *group) int {
	p := s.pending(gr)
	u := p - gr.persisted
	if u < 0 {
		u = 0
	}
	return u
}

// advance moves simulated time forward and fires SLA timeouts for any
// open chunk whose oldest unpersisted user block has waited past the
// window. Timeouts are processed lazily (at the next event) but in
// deadline order, so a later-expiring group's handler cannot absorb an
// earlier-expiring group's blocks past their own deadline.
func (s *Store) advance(now sim.Time) {
	if now > s.now {
		s.now = now
	}
	s.rec.TickTo(s.now)
	for {
		var next *group
		for _, gr := range s.groups {
			if gr.armTime < 0 || s.now-gr.armTime < s.cfg.SLAWindow || s.unpersisted(gr) == 0 {
				continue
			}
			if next == nil || gr.armTime < next.armTime {
				next = gr
			}
		}
		if next == nil {
			return
		}
		s.handleTimeout(next)
	}
}

// handleTimeout flushes (or shadow-persists) group gr's expired chunk.
// Timeouts are processed lazily, so the physical flush is stamped at
// the SLA deadline rather than the (later) processing time.
func (s *Store) handleTimeout(gr *group) {
	deadline := gr.armTime + s.cfg.SLAWindow
	act := TimeoutAction{Kind: PadOwn}
	if s.advisor != nil {
		act = s.advisor.OnChunkTimeout(gr.id, s.now, s.snapshot())
	}
	if act.Kind == ShadowInto {
		if s.shadowInto(gr, act.Target, deadline) {
			return
		}
		// Shadow target unusable; fall back to padding.
	}
	s.padFlush(gr, act.Donors, deadline, telemetry.FlushSLA)
}

// snapshot fills and returns per-group state for advisor decisions.
func (s *Store) snapshot() []GroupSnapshot {
	for i, gr := range s.groups {
		gm := s.metrics.PerGroup[i]
		p := s.pending(gr)
		s.snaps[i] = GroupSnapshot{
			Group:           gr.id,
			OpenPending:     p,
			OpenUnpersisted: s.unpersisted(gr),
			OpenFree:        s.chunkBlocks - p,
			UserBlocks:      gm.UserBlocks,
			GCBlocks:        gm.GCBlocks,
			ShadowBlocks:    gm.ShadowBlocks,
			PaddingBlocks:   gm.PaddingBlocks,
			PaddingEvents:   gm.PaddingEvents,
			SealedSegments:  int(gm.Sealed),
		}
	}
	return s.snaps
}

// shadowInto persists gr's unpersisted pending blocks as shadow copies
// in target's open chunk and flushes target's chunk immediately
// (§3.3). Returns false if the target cannot absorb all of them, in
// which case the caller pads instead.
func (s *Store) shadowInto(gr *group, target GroupID, at sim.Time) bool {
	if int(target) < 0 || int(target) >= len(s.groups) || target == gr.id {
		return false
	}
	tg := s.groups[target]
	need := s.unpersisted(gr)
	if need == 0 {
		return false
	}
	if s.chunkBlocks-s.pending(tg) < need {
		return false
	}
	// The target chunk will be flushed as part of this shadow append;
	// its own pending blocks become durable at the deadline, not at
	// the (possibly much later) lazy processing time — record their
	// latency now, before a boundary flush can stamp s.now.
	s.recordLatencies(tg, s.pending(tg), at)
	// Copy the real block addresses of the unpersisted source slots so
	// that recovery can restore data from the shadow copies. The target
	// group must have an open segment with room in its current chunk.
	srcs := s.unpersistedLBAs(gr)
	for _, lba := range srcs {
		s.appendBlock(target, lba, kindShadow)
	}
	s.recordLatencies(gr, s.pending(gr), at)
	gr.persisted = s.pending(gr)
	gr.armTime = -1
	// The shadow copies (and any target-pending blocks) must be durable
	// now: flush the target chunk, padding any remainder.
	if s.pending(tg) > 0 {
		s.padFlush(tg, nil, at, telemetry.FlushShadow)
	}
	return true
}

// padFlush flushes gr's open chunk. Donor groups may contribute their
// unpersisted pending blocks as shadow copies to fill would-be padding
// space (all-or-nothing per donor); the rest is zero padding. why is
// recorded with the telemetry pad-flush event.
func (s *Store) padFlush(gr *group, donors []GroupID, at sim.Time, why telemetry.FlushReason) {
	p := s.pending(gr)
	if p == 0 {
		return
	}
	// Pending blocks persist at this flush; stamp their latency at the
	// flush time before donor fillers can trigger a boundary flush
	// that would use the lazy processing clock.
	s.recordLatencies(gr, p, at)
	for _, d := range donors {
		if s.pending(gr) == 0 {
			return // donors filled the chunk exactly; it auto-flushed
		}
		if int(d) < 0 || int(d) >= len(s.groups) || d == gr.id {
			continue
		}
		dg := s.groups[d]
		n := s.unpersisted(dg)
		if n == 0 || n > s.chunkBlocks-s.pending(gr) {
			continue
		}
		for _, lba := range s.unpersistedLBAs(dg) {
			s.appendBlock(gr.id, lba, kindShadow)
		}
		s.recordLatencies(dg, s.pending(dg), at)
		dg.persisted = s.pending(dg)
		dg.armTime = -1
	}
	p = s.pending(gr)
	if p == 0 {
		return
	}
	seg := gr.open
	pad := s.chunkBlocks - p
	for i := 0; i < pad; i++ {
		gr.arrivals[seg.written%s.chunkBlocks] = -1
		seg.lbas[seg.written] = padSlot
		seg.written++
	}
	gm := &s.metrics.PerGroup[gr.id]
	gm.PaddingBlocks += int64(pad)
	gm.PaddingEvents++
	s.metrics.PaddingBlocks += int64(pad)
	if s.tracer != nil && pad > 0 {
		s.tracer.Emit(telemetry.PadFlush(at, int(gr.id), pad, why))
	}
	s.flushChunk(gr, pad, at)
	if seg.written == s.segBlocks {
		s.seal(gr)
	}
}

// flushChunk accounts one completed chunk (device write) for gr and
// resets the chunk buffering state.
func (s *Store) flushChunk(gr *group, padBlocks int, at sim.Time) {
	s.recordLatencies(gr, s.chunkBlocks, at)
	payload := int64(s.chunkBlocks-padBlocks) * s.blockBytes
	s.array.WriteChunk(payload, int64(padBlocks)*s.blockBytes)
	s.metrics.PerGroup[gr.id].ChunkFlushes++
	s.padHist.Observe(int64(padBlocks))
	if s.tracer != nil {
		s.tracer.Emit(telemetry.ChunkFlush(at, int(gr.id), gr.open.id,
			gr.open.written/s.chunkBlocks-1, s.chunkBlocks-padBlocks, padBlocks))
	}
	if s.sink != nil || s.auditSink != nil {
		w := ChunkWrite{
			Group:        gr.id,
			Segment:      gr.open.id,
			Chunk:        gr.open.written/s.chunkBlocks - 1,
			PayloadBytes: payload,
			PadBytes:     int64(padBlocks) * s.blockBytes,
		}
		if s.sink != nil {
			s.sink(w)
		}
		if s.auditSink != nil {
			s.auditSink(w)
		}
	}
	s.durableAppend(gr)
	gr.armTime = -1
	gr.persisted = 0
	gr.latCounted = 0
}

// recordLatencies records persistence latency for the open chunk's
// user blocks in slots [gr.latCounted, upto), durable at time at.
func (s *Store) recordLatencies(gr *group, upto int, at sim.Time) {
	for i := gr.latCounted; i < upto; i++ {
		if a := gr.arrivals[i]; a >= 0 {
			s.metrics.Latency.record(at-a, s.cfg.SLAWindow)
		}
	}
	if upto > gr.latCounted {
		gr.latCounted = upto
	}
}

// appendBlock appends one block of the given kind to group g,
// allocating/sealing segments and flushing full chunks as needed.
func (s *Store) appendBlock(g GroupID, lba int64, kind appendKind) {
	gr := s.groups[g]
	seg := s.ensureOpen(gr)
	slot := seg.written
	gr.arrivals[slot%s.chunkBlocks] = -1
	gm := &s.metrics.PerGroup[g]
	s.appendSeq++
	seg.vers[slot] = s.appendSeq
	switch kind {
	case kindUser, kindGC:
		if old := s.mapping[lba]; old >= 0 {
			oldSeg := s.segments[old/int64(s.segBlocks)]
			oldSeg.valid--
			if oldSeg.state == segSealed {
				s.vidx.onInvalidate(oldSeg)
			}
		}
		seg.lbas[slot] = lba
		s.mapping[lba] = int64(seg.id)*int64(s.segBlocks) + int64(slot)
		seg.valid++
		if kind == kindUser {
			// Counted here, not in WriteBlock: ensureOpen above may run a
			// whole GC cycle, and its invariant sweep must not see the
			// global counter ahead of the per-group one.
			s.metrics.UserBlocks++
			gm.UserBlocks++
			gr.arrivals[slot%s.chunkBlocks] = s.now
			if gr.armTime < 0 {
				gr.armTime = s.now
			}
		} else {
			gm.GCBlocks++
		}
	case kindShadow:
		seg.lbas[slot] = encodeShadow(lba)
		gm.ShadowBlocks++
		s.metrics.ShadowBlocks++
	}
	seg.written++
	if seg.written%s.chunkBlocks == 0 {
		s.flushChunk(gr, 0, s.now)
	}
	if seg.written == s.segBlocks {
		s.seal(gr)
	}
}

// ensureOpen returns gr's open segment, allocating one if needed.
func (s *Store) ensureOpen(gr *group) *segment {
	if gr.open != nil {
		return gr.open
	}
	if !s.inGC {
		if s.cfg.BackgroundGC {
			// Background mode: watermark-triggered GC is the external
			// pacer's job (GCStep); the store only intervenes when the
			// free pool hits the emergency hard floor. Even then it does
			// the minimum stop-the-world work — advance the in-flight
			// cycle (or a fresh one) synchronously only until the pool
			// clears the low watermark — and leaves the rest of the
			// cycle in flight for the pacer, so an emergency costs a few
			// segments' relocation inline, not a whole cycle's.
			if len(s.free) <= s.wm.floor {
				s.metrics.GCEmergencyRuns++
				s.runGCUntil(s.wm.low)
			}
		} else if len(s.free) <= s.wm.low {
			s.runGC()
		}
		// GC migrations may have placed blocks into this very group,
		// opening a segment for it already.
		if gr.open != nil {
			return gr.open
		}
	}
	if len(s.free) == 0 {
		panic(fmt.Sprintf("lss: free pool exhausted (policy %s): GC cannot reclaim garbage", s.policy.Name()))
	}
	id := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	seg := s.segments[id]
	seg.group = gr.id
	seg.state = segOpen
	seg.written = 0
	seg.valid = 0
	seg.born = s.w
	gr.open = seg
	gr.armTime = -1
	gr.persisted = 0
	gr.latCounted = 0
	s.durableOpen(seg)
	return seg
}

// seal closes gr's open segment. Only full segments seal, so the last
// chunk has already been flushed.
func (s *Store) seal(gr *group) {
	seg := gr.open
	seg.state = segSealed
	seg.sealedW = s.w
	s.sealCount++
	seg.sealSeq = s.sealCount
	s.vidx.onSeal(seg)
	gr.open = nil
	s.metrics.PerGroup[gr.id].Sealed++
	if s.tracer != nil {
		s.tracer.Emit(telemetry.SegmentSeal(s.now, int(gr.id), seg.id, seg.valid))
	}
	s.durableSeal(seg)
}
