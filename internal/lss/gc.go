package lss

import (
	"fmt"
	"math"
	"sort"

	"adapt/internal/telemetry"
)

// The GC cycle is a resumable state machine. A cycle reclaims sealed
// segments until the free pool reaches the high watermark; victims are
// chosen by the configured policy and each victim's valid blocks are
// re-placed through Policy.PlaceGC before the segment returns to the
// free pool. The synchronous path (runGC) drives the machine to
// completion in one call — byte-identical behavior to the historical
// inline cycle. Under Config.BackgroundGC an external pacer drives it
// in bounded slices through GCStep, yielding at chunk-relocation and
// victim boundaries so user operations interleave with GC instead of
// stalling behind a whole cycle.
//
// Interleaving safety rests on three facts. User writes and trims
// during a pause only *invalidate* victim slots (the mapping moves
// away and valid decrements; the relocation scan skips unmapped
// slots), so the valid==0 post-migration invariant still holds.
// Segments only leave the sealed state through this cycle (inGC bars
// reentry), so a selected victim batch stays reclaimable across
// pauses. And the degraded flag and watermark target are re-read at
// every batch boundary, so a Reconfigure landing mid-cycle takes
// effect at the next batch instead of racing a latched target.

// gcCycle is the persistent state of one (possibly preempted) cycle.
type gcCycle struct {
	target  int // free-pool goal, re-latched per victim batch
	budget  int // remaining reclaims before the safety valve trips
	victims []*segment
	vi      int // next victim in the batch
	slot    int // next slot of the current victim
	// migrated counts blocks relocated out of the current victim, for
	// the segment-observer callback.
	migrated int
	// batchBefore is the free-pool size when the current batch was
	// selected, for the no-net-progress exit.
	batchBefore int

	// Cycle-delta telemetry, latched at cycle start.
	startReclaimed, startMigrated, startScanned int64
	id                                          int64
	release                                     func()
}

// runGC synchronously drives the cycle — resuming the in-flight one if
// preempted, else starting fresh — to completion. This is the
// watermark trigger path (and the background mode's emergency floor).
func (s *Store) runGC() {
	for !s.gcAdvance(math.MaxInt) {
	}
}

// runGCUntil synchronously advances the cycle — in chunk-sized steps,
// starting one if needed — until the free pool holds at least want
// segments or the cycle completes on its own. A cycle preempted with
// its target unmet stays in flight for the pacer to resume: this is
// the emergency floor's minimal-stall path.
func (s *Store) runGCUntil(want int) {
	for s.freeCount() < want {
		if s.gcAdvance(s.chunkBlocks) {
			return
		}
	}
}

// gcDue reports that the free pool has sunk far enough to owe GC
// work. A synchronous store triggers at the low watermark and sweeps
// back to the high one. A background store is due as soon as the pool
// dips below the high watermark — urgency just above zero — so the
// pacer can trickle small early slices instead of idling until the
// pool hits the urgent zone and then racing the writers to the
// emergency floor.
func (s *Store) gcDue() bool {
	if s.cfg.BackgroundGC {
		// The early start also needs a reclaimable victim to exist (some
		// sealed segment with garbage), or an eager pacer would spin
		// opening cycles that select nothing.
		return s.freeCount() < s.wm.high && s.vidx.topGarbage() >= 1
	}
	return s.freeCount() <= s.wm.low
}

// GCNeeded reports whether GC has work: a cycle is in flight or the
// free pool is at or below the scheduling trigger (see gcDue). The
// background pacer polls it.
func (s *Store) GCNeeded() bool {
	return s.gc != nil || s.gcDue()
}

// GCActive reports an in-flight (possibly preempted) cycle.
func (s *Store) GCActive() bool { return s.gc != nil }

// GCUrgency is the pacer's distance-to-watermark signal: 0 at or
// above the high watermark, 1 at the low watermark, above 1 as the
// pool sinks toward the emergency floor.
func (s *Store) GCUrgency() float64 {
	u := float64(s.wm.high-s.freeCount()) / float64(s.wm.high-s.wm.low)
	if u < 0 {
		return 0
	}
	return u
}

// GCStep drives the background cycle by roughly budget relocation
// units (a unit is one victim chunk scanned, costing at least 1 and at
// most the blocks actually relocated), starting a cycle if one is due.
// It returns true when no cycle remains in flight. Callers must
// serialize with all other store use, exactly as for Write.
func (s *Store) GCStep(budget int) (done bool) {
	if s.gc == nil && !s.gcDue() {
		return true
	}
	if budget <= 0 {
		return s.gc == nil
	}
	s.metrics.GCSlices++
	return s.gcAdvance(budget)
}

// gcTarget resolves the current free-pool goal; degraded mode (failed
// array column, rebuild behind its watermark) reclaims only the
// minimum needed to keep allocating so GC migration traffic does not
// starve the rebuild.
func (s *Store) gcTarget() int {
	if s.degraded {
		return s.wm.low + 1
	}
	return s.wm.high
}

// gcBegin opens a cycle: admission gate, cycle counters, trace event.
func (s *Store) gcBegin() {
	c := &gcCycle{
		// Safety valve against livelock when every victim is nearly
		// full (possible under random/windowed selection): after this
		// many reclaims the cycle gives up and the caller may panic on
		// true exhaustion.
		budget:         8 * len(s.segments),
		startReclaimed: s.metrics.SegmentsReclaimed,
		startMigrated:  s.metrics.GCBlocks,
		startScanned:   s.metrics.GCScannedBlocks,
	}
	if s.gcGate != nil && !s.cfg.BackgroundGC {
		// Cross-shard desynchronization: wait for the shared scheduler
		// token so at most one shard's GC competes for the device
		// columns at a time. The shard lock stays held while waiting —
		// this shard cannot allocate anyway — but other shards keep
		// serving; their mutexes are disjoint.
		c.release = s.gcGate()
	}
	s.metrics.GCCycles++
	c.id = s.metrics.GCCycles
	if s.degraded {
		s.metrics.ThrottledGCCycles++
	}
	if s.tracer != nil {
		s.tracer.Emit(telemetry.GCStart(s.teleNow(), s.freeCount()))
	}
	s.gc = c
}

// gcFinish closes the cycle: trace deltas, gate release, fail-stop
// self-check.
func (s *Store) gcFinish() {
	c := s.gc
	s.gc = nil
	if s.tracer != nil {
		s.tracer.Emit(telemetry.GCEnd(s.teleNow(),
			s.metrics.SegmentsReclaimed-c.startReclaimed,
			s.metrics.GCBlocks-c.startMigrated,
			s.metrics.GCScannedBlocks-c.startScanned))
	}
	if c.release != nil {
		c.release()
	}
	if s.cfg.Paranoid {
		s.paranoidCheck("after GC cycle")
	}
}

// gcAdvance executes the state machine until the cycle completes
// (returns true) or roughly budget work units are spent (returns
// false, cycle preempted). Each contiguous execution logs its own
// interference interval, so tail-latency attribution sees the real
// busy windows of a paced cycle rather than one wall-spanning blur.
func (s *Store) gcAdvance(budget int) (done bool) {
	s.inGC = true
	if s.gc == nil {
		s.gcBegin()
	}
	c := s.gc
	if s.itv != nil {
		sliceT0 := s.teleNow()
		defer func() {
			s.itv.Add(telemetry.Interval{
				Kind: telemetry.IntervalGC, ID: c.id, Column: -1, Shard: s.shard,
				Start: sliceT0, End: s.teleNow(),
			})
		}()
	}
	defer func() { s.inGC = false }()
	spent := 0
	for {
		if c.vi >= len(c.victims) {
			// Victim-batch boundary: re-latch the target (the degraded
			// flag may have flipped via Reconfigure during a pause) and
			// run the end-of-batch exits.
			if c.victims != nil {
				if c.budget <= 0 {
					s.gcFinish()
					return true
				}
				if s.freeCount() <= c.batchBefore && s.freeCount() > s.wm.low {
					// No net progress this batch (valid blocks merely
					// moved) but the cushion is still healthy: stop
					// churning; GC re-triggers at the next low-water
					// allocation. Below the cushion we keep compacting —
					// fractional garbage consolidates across batches and
					// eventually frees whole segments.
					s.gcFinish()
					return true
				}
			}
			c.target = s.gcTarget()
			if s.freeCount() >= c.target {
				s.gcFinish()
				return true
			}
			c.batchBefore = s.freeCount()
			want := c.target - s.freeCount()
			if s.degraded {
				want = 1
			}
			c.victims = selectVictims(s, want)
			c.vi, c.slot, c.migrated = 0, 0, 0
			if len(c.victims) == 0 {
				// Nothing reclaimable; the caller may panic on true
				// exhaustion.
				s.gcFinish()
				return true
			}
		}
		v := c.victims[c.vi]
		if c.slot == 0 && v.state != segSealed {
			c.vi++ // already reclaimed (duplicate in a sampled batch)
			continue
		}
		spent += s.reclaimChunk(v, c)
		if c.slot < v.written {
			// Mid-victim yield point (chunk boundary).
			if spent >= budget {
				return false
			}
			continue
		}
		s.reclaimFinish(v, c)
		c.vi++
		c.slot, c.migrated = 0, 0
		c.budget--
		if s.freeCount() >= c.target {
			s.gcFinish()
			return true
		}
		if spent >= budget {
			return false
		}
	}
}

// victimBetter is the canonical victim order used by both selection
// paths: higher score first, then oldest seal clock, then lowest id.
// The deterministic tie-break makes the scan and the index produce
// byte-identical victim sequences for the deterministic policies.
func victimBetter(sa float64, a *segment, sb float64, b *segment) bool {
	if sa != sb {
		return sa > sb
	}
	if a.sealedW != b.sealedW {
		return a.sealedW < b.sealedW
	}
	return a.id < b.id
}

// scoredSeg pairs a candidate with its policy score during selection.
type scoredSeg struct {
	seg   *segment
	score float64
}

// topNCands orders candidates by victimBetter and returns the best n
// segments.
func topNCands(cands []scoredSeg, n int) []*segment {
	sort.Slice(cands, func(i, j int) bool {
		return victimBetter(cands[i].score, cands[i].seg, cands[j].score, cands[j].seg)
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]*segment, n)
	for i := range out {
		out[i] = cands[i].seg
	}
	return out
}

// selectVictims returns up to n victims ordered best-first according
// to the victim policy. Segments with no garbage are never selected
// (reclaiming them cannot make progress). It answers from the
// incremental victim index without touching the segment array; it is a
// variable only so the package's test hook (export_test.go) can route
// stores through the reference scan for the differential tests.
var selectVictims = (*Store).selectVictimsIndexed

// selectVictimsScan is the reference selector: rescan every segment,
// score, and sort — O(S log S) per call. No configuration selects it:
// the differential tests and the victim-selection benchmark reach it
// through export_test.go.
func (s *Store) selectVictimsScan(n int) []*segment {
	var cands []scoredSeg
	consider := func(seg *segment) {
		if seg.state != segSealed || seg.valid >= seg.written {
			return
		}
		cands = append(cands, scoredSeg{seg, s.victimScore(seg)})
	}
	switch s.cfg.Victim {
	case DChoices:
		// Sample d random sealed segments per needed victim.
		tries := s.cfg.DChoicesD * n * 2
		for i := 0; i < tries && len(cands) < s.cfg.DChoicesD*n; i++ {
			seg := s.segments[s.rng.Intn(len(s.segments))]
			consider(seg)
		}
		if len(cands) == 0 {
			// Degenerate sample; fall back to a full scan.
			for _, seg := range s.segments {
				consider(seg)
			}
		}
	case RandomGreedy:
		// Random Greedy [Li et al., SIGMETRICS'13]: pick uniformly at
		// random among reclaimable sealed segments.
		for i := 0; i < 4*len(s.segments) && len(cands) < n; i++ {
			seg := s.segments[s.rng.Intn(len(s.segments))]
			consider(seg)
		}
		if len(cands) == 0 {
			for _, seg := range s.segments {
				consider(seg)
			}
		}
	case WindowedGreedy:
		// Windowed Greedy [Hu et al., SYSTOR'09]: greedy restricted to
		// the W oldest sealed segments (by seal order).
		w := s.windowSize(n)
		var sealed []*segment
		for _, seg := range s.segments {
			if seg.state == segSealed {
				sealed = append(sealed, seg)
			}
		}
		// Seal sequence, not seal clock: sealedW can tie (several seals
		// during one GC cycle), and the window must be a total order for
		// the scan and the seal ring to agree.
		sort.Slice(sealed, func(i, j int) bool { return sealed[i].sealSeq < sealed[j].sealSeq })
		if w > len(sealed) {
			w = len(sealed)
		}
		for _, seg := range sealed[:w] {
			consider(seg)
		}
		if len(cands) == 0 {
			// The oldest window can be entirely full-valid (compacted
			// cold segments); widen to a full scan rather than stall.
			for _, seg := range s.segments {
				consider(seg)
			}
		}
	default:
		for _, seg := range s.segments {
			consider(seg)
		}
	}
	s.metrics.GCScannedBlocks += int64(len(cands))
	return topNCands(cands, n)
}

// windowSize resolves the WindowedGreedy candidate window: the oldest
// eighth of the segments, at least n.
func (s *Store) windowSize(n int) int {
	return max(len(s.segments)/8, n)
}

// selectVictimsIndexed answers the victim query from the incremental
// index. GCScannedBlocks counts index probes (entries examined) here,
// the indexed analogue of the scan path's candidates-considered count.
func (s *Store) selectVictimsIndexed(n int) []*segment {
	p0 := s.vidx.probes
	defer func() { s.metrics.GCScannedBlocks += s.vidx.probes - p0 }()
	switch s.cfg.Victim {
	case CostBenefit:
		return s.indexedCostBenefit(n)
	case DChoices:
		return s.indexedDChoices(n)
	case RandomGreedy:
		return s.indexedRandomGreedy(n)
	case WindowedGreedy:
		return s.indexedWindowed(n)
	default:
		return s.indexedGreedy(n)
	}
}

// indexedGreedy pops the n best segments from the garbage buckets,
// highest bucket first. Within a bucket the heap order (sealedW, id)
// is exactly the victimBetter tie-break, so the pop sequence matches
// the sorted scan. Popped entries are re-pushed afterwards — victims
// that actually get reclaimed go stale via onFree and are dropped
// lazily.
func (s *Store) indexedGreedy(n int) []*segment {
	vi := s.vidx
	out := make([]*segment, 0, n)
	var popped []viEntry
	for g := vi.topGarbage(); g >= 1 && len(out) < n; {
		e, ok := vi.popLive(g)
		if !ok {
			g--
			continue
		}
		popped = append(popped, e)
		out = append(out, s.segments[e.seg])
	}
	for _, e := range popped {
		vi.heapPush(vi.bucket[e.seg], e)
	}
	return out
}

// indexedCostBenefit merges the per-bucket heads by exact
// cost-benefit score. Utilization is constant within a bucket, so the
// cost-benefit order there is the static (sealedW, id) heap order and
// the global best is always some bucket's head: an n-way merge over at
// most segBlocks buckets, independent of the segment count.
func (s *Store) indexedCostBenefit(n int) []*segment {
	vi := s.vidx
	out := make([]*segment, 0, n)
	var popped []viEntry
	for len(out) < n {
		var best *segment
		var bestScore float64
		bestG := -1
		for g := vi.topGarbage(); g >= 1; g-- {
			e, ok := vi.peekLive(g)
			if !ok {
				continue
			}
			seg := s.segments[e.seg]
			sc := s.victimScore(seg)
			if bestG < 0 || victimBetter(sc, seg, bestScore, best) {
				best, bestScore, bestG = seg, sc, g
			}
		}
		if bestG < 0 {
			break
		}
		e, _ := vi.popLive(bestG)
		popped = append(popped, e)
		out = append(out, best)
	}
	for _, e := range popped {
		vi.heapPush(vi.bucket[e.seg], e)
	}
	return out
}

// indexedDChoices mirrors the scan's sampling loop (same rng stream,
// so victim sequences stay byte-identical), but falls back to the
// index instead of a full scan on a degenerate sample.
func (s *Store) indexedDChoices(n int) []*segment {
	var cands []scoredSeg
	tries := s.cfg.DChoicesD * n * 2
	for i := 0; i < tries && len(cands) < s.cfg.DChoicesD*n; i++ {
		s.vidx.probes++
		seg := s.segments[s.rng.Intn(len(s.segments))]
		if seg.state != segSealed || seg.valid >= seg.written {
			continue
		}
		cands = append(cands, scoredSeg{seg, s.victimScore(seg)})
	}
	if len(cands) == 0 {
		return s.indexedGreedy(n)
	}
	return topNCands(cands, n)
}

// indexedRandomGreedy keeps the scan's rejection-sampling loop; when
// the sample comes up empty it draws uniformly from the index's live
// members instead of scanning, so the distribution is unchanged.
func (s *Store) indexedRandomGreedy(n int) []*segment {
	vi := s.vidx
	var cands []scoredSeg
	for i := 0; i < 4*len(s.segments) && len(cands) < n; i++ {
		vi.probes++
		seg := s.segments[s.rng.Intn(len(s.segments))]
		if seg.state != segSealed || seg.valid >= seg.written {
			continue
		}
		cands = append(cands, scoredSeg{seg, s.victimScore(seg)})
	}
	if len(cands) > 0 {
		return topNCands(cands, n)
	}
	// Uniform permutation of the reclaimable members (partial
	// Fisher-Yates), equivalent to the scan fallback's random scoring.
	var ids []int32
	for g := vi.topGarbage(); g >= 1; g-- {
		for _, e := range vi.buckets[g] {
			vi.probes++
			if vi.liveEntry(e) {
				ids = append(ids, e.seg)
			}
		}
	}
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]*segment, n)
	for i := 0; i < n; i++ {
		j := i + s.rng.Intn(len(ids)-i)
		ids[i], ids[j] = ids[j], ids[i]
		out[i] = s.segments[ids[i]]
	}
	return out
}

// indexedWindowed reads the candidate window straight off the seal
// ring — insertion order is seal order, so no per-cycle sort — and
// falls back to plain greedy when the window holds no garbage.
func (s *Store) indexedWindowed(n int) []*segment {
	vi := s.vidx
	var cands []scoredSeg
	for _, id := range vi.windowEntries(s.windowSize(n)) {
		seg := s.segments[id]
		if seg.valid >= seg.written {
			continue
		}
		cands = append(cands, scoredSeg{seg, s.victimScore(seg)})
	}
	if len(cands) == 0 {
		return s.indexedGreedy(n)
	}
	return topNCands(cands, n)
}

// victimScore returns a higher-is-better score for victim selection.
func (s *Store) victimScore(seg *segment) float64 {
	u := float64(seg.valid) / float64(s.segBlocks)
	switch s.cfg.Victim {
	case RandomGreedy:
		// Pure random choice among reclaimable segments: a random
		// score makes the candidate ordering uniform.
		return s.rng.Float64()
	case CostBenefit:
		// Rosenblum & Ousterhout cost-benefit: age × (1−u) / 2u.
		age := float64(s.w - seg.sealedW)
		if u == 0 {
			return math.Inf(1)
		}
		return age * (1 - u) / (2 * u)
	default: // Greedy and DChoices maximize garbage.
		return 1 - u
	}
}

// reclaimChunk migrates the valid blocks in one chunk's worth of a
// victim's slots, starting at c.slot, and advances the cursor. It is
// the state machine's unit of relocation work; the returned cost is
// at least 1 (so all-garbage chunks still consume budget and the pacer
// makes progress) and otherwise the number of blocks relocated.
func (s *Store) reclaimChunk(seg *segment, c *gcCycle) int {
	if c.slot == 0 {
		if seg.state != segSealed {
			panic(fmt.Sprintf("lss: reclaiming segment %d in state %d", seg.id, seg.state))
		}
		if s.onReclaim != nil {
			s.onReclaim(seg.id)
		}
	}
	base := int64(seg.id) * int64(s.segBlocks)
	end := c.slot + s.chunkBlocks
	if end > seg.written {
		end = seg.written
	}
	relocated := 0
	for ; c.slot < end; c.slot++ {
		// Shadow slots are decoded too: after crash recovery the
		// mapping may legitimately point at a shadow copy, which must
		// be migrated like any live block.
		lba, ok := decodeSlot(seg.lbas[c.slot])
		if !ok {
			continue // padding
		}
		if s.mapping[lba] != base+int64(c.slot) {
			continue // overwritten since (or an expired shadow copy): garbage
		}
		target := s.policy.PlaceGC(lba, seg.group, seg.born, seg.sealedW, s.w)
		if int(target) < 0 || int(target) >= len(s.groups) {
			panic(fmt.Sprintf("lss: policy %s migrated block to unknown group %d", s.policy.Name(), target))
		}
		s.metrics.GCBlocks++
		s.appendBlock(target, lba, kindGC)
		relocated++
	}
	c.migrated += relocated
	if relocated < 1 {
		return 1
	}
	return relocated
}

// reclaimFinish frees a fully migrated victim.
func (s *Store) reclaimFinish(seg *segment, c *gcCycle) {
	if seg.valid != 0 {
		panic(fmt.Sprintf("lss: segment %d has %d valid blocks after migration", seg.id, seg.valid))
	}
	if s.segObs != nil {
		s.segObs.OnSegmentReclaimed(seg.group, seg.born, seg.sealedW, s.w, c.migrated, seg.written)
	}
	s.vidx.onFree(seg)
	seg.state = segFree
	if s.committer != nil {
		// Reusable once the commit that makes the free durable hands
		// it back (DurableCommitted).
		s.retired = append(s.retired, seg.id)
	} else {
		s.free = append(s.free, seg.id)
	}
	s.metrics.SegmentsReclaimed++
	s.durableFree(seg)
}

// paranoidCheck runs CheckInvariants and panics on a violation; it is
// the fail-stop behind Config.Paranoid.
func (s *Store) paranoidCheck(when string) {
	if err := s.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("lss: paranoid check %s: %v", when, err))
	}
}

// CheckInvariants verifies internal consistency; tests call it after
// stress runs. It is O(capacity).
func (s *Store) CheckInvariants() error {
	// Every mapped LBA must point at a matching slot in a non-free
	// segment, and per-segment valid counts must agree with a recount.
	recount := make([]int, len(s.segments))
	var mapped int64
	for lba, loc := range s.mapping {
		if loc < 0 {
			continue
		}
		mapped++
		segID := int(loc / int64(s.segBlocks))
		slot := int(loc % int64(s.segBlocks))
		if segID < 0 || segID >= len(s.segments) {
			return fmt.Errorf("lba %d maps to bad segment %d", lba, segID)
		}
		seg := s.segments[segID]
		if seg.state == segFree {
			return fmt.Errorf("lba %d maps into free segment %d", lba, segID)
		}
		if slot >= seg.written {
			return fmt.Errorf("lba %d maps to unwritten slot %d of segment %d", lba, slot, segID)
		}
		if got, ok := decodeSlot(seg.lbas[slot]); !ok || got != int64(lba) {
			return fmt.Errorf("lba %d maps to slot holding %d", lba, seg.lbas[slot])
		}
		recount[segID]++
	}
	var totalValid int64
	for i, seg := range s.segments {
		if seg.state == segFree {
			continue
		}
		if seg.valid != recount[i] {
			return fmt.Errorf("segment %d valid=%d, recount=%d", i, seg.valid, recount[i])
		}
		totalValid += int64(seg.valid)
		if seg.written > s.segBlocks {
			return fmt.Errorf("segment %d overfilled: %d slots", i, seg.written)
		}
		if seg.state == segSealed && seg.written != s.segBlocks {
			return fmt.Errorf("segment %d sealed at %d/%d slots", i, seg.written, s.segBlocks)
		}
	}
	if totalValid != mapped {
		return fmt.Errorf("valid-block total %d != mapped LBAs %d", totalValid, mapped)
	}
	// Free pool and retired entries must be unique and marked free.
	seen := make(map[int]bool, s.freeCount())
	for _, id := range append(s.free[:len(s.free):len(s.free)], s.retired...) {
		if seen[id] {
			return fmt.Errorf("segment %d appears twice in free pool and retired list", id)
		}
		seen[id] = true
		if s.segments[id].state != segFree {
			return fmt.Errorf("segment %d in free pool but state %d", id, s.segments[id].state)
		}
	}
	// Group metric sums must match global counters.
	var u, g, sh, pad int64
	for _, gm := range s.metrics.PerGroup {
		u += gm.UserBlocks
		g += gm.GCBlocks
		sh += gm.ShadowBlocks
		pad += gm.PaddingBlocks
	}
	if u != s.metrics.UserBlocks || g != s.metrics.GCBlocks ||
		sh != s.metrics.ShadowBlocks || pad != s.metrics.PaddingBlocks {
		return fmt.Errorf("per-group sums (%d,%d,%d,%d) disagree with totals (%d,%d,%d,%d)",
			u, g, sh, pad,
			s.metrics.UserBlocks, s.metrics.GCBlocks, s.metrics.ShadowBlocks, s.metrics.PaddingBlocks)
	}
	// The victim index must agree with a recount of segment state.
	if err := s.vidx.check(s.segments); err != nil {
		return err
	}
	return nil
}
