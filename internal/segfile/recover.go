package segfile

import (
	"fmt"

	"adapt/internal/lss"
	"adapt/internal/sim"
)

// Recovery: Open's scan produced one segImage per region holding an
// incarnation, each already cut to its valid prefix. Recover resolves
// what a crash could legitimately leave behind — a full segment whose
// seal record was not yet synced, a group's short predecessor behind a
// durable successor — fills an lss.Image from the result, and lets
// lss.RecoverImage validate it and do the roll-forward, so the on-disk
// log and the in-memory checkpoint share one recovery semantics, and
// the crash oracle (checker.CompareRecovered) applies to both
// unchanged.

// RecoveryStats reports what Recover rolled forward.
type RecoveryStats struct {
	// Segments and SealedSegments count surviving (non-free) segment
	// incarnations, and how many of them were sealed.
	Segments       int
	SealedSegments int
	// PromotedSegments counts short segments sealed because a newer
	// incarnation of their group was durable: a crash kept the
	// successor's pages but lost the predecessor's tail.
	PromotedSegments int
	// Blocks is the number of LBAs mapped after roll-forward.
	Blocks int64
	// TornRecords counts the regions whose tail Open cut and zeroed
	// (writes a crash tore, geometry-invalid chunks, degraded seals).
	TornRecords int
	// CorruptFiles counts checkpoint slots and regions dropped whole
	// (bad header, a header naming another id, an id the configured
	// store cannot hold, an undecodable slot).
	CorruptFiles int
	// CheckpointLoaded reports whether a valid checkpoint slot was
	// found.
	CheckpointLoaded bool
}

// Recover rebuilds a live lss.Store from the scanned log. cfg and p
// must match the geometry and group count the log was written with.
// deps is wired into the recovered store; callers that want the store
// to keep persisting must include Durable: st in it.
func (st *Store) Recover(cfg lss.Config, p lss.Policy, deps ...lss.Deps) (*lss.Store, RecoveryStats, error) {
	var stats RecoveryStats
	if p == nil {
		return nil, stats, fmt.Errorf("segfile: recover: nil policy")
	}
	if g := newLayout(cfg).geometry; g != st.lay.geometry {
		return nil, stats, fmt.Errorf("segfile: recover: configuration %+v does not match the log's %+v", g, st.lay.geometry)
	}
	total := cfg.TotalSegments(p.Groups())
	segChunks := cfg.GeometryDefaults().SegmentChunks
	segBlocks := cfg.GeometryDefaults().SegmentBlocks()

	var maxW, maxSeq, maxNow uint64
	if st.ckpt != nil {
		stats.CheckpointLoaded = true
		maxW, maxSeq, maxNow = st.ckpt.w, st.ckpt.appendSeq, st.ckpt.now
	}
	// A group opens a segment only after sealing the one before, so
	// every incarnation of a group but its newest is sealed — or lost
	// its tail in a crash that kept a newer one.
	newest := make(map[int]uint64)
	for _, img := range st.images {
		newest[img.header.group] = max(newest[img.header.group], img.header.epoch)
	}
	segs := make([]lss.SegmentImage, total)
	for id, img := range st.images {
		if id >= total {
			// A region the configured store cannot hold: with the
			// right configuration this never parses; drop it whole.
			delete(st.images, id)
			delete(st.segs, id)
			stats.CorruptFiles++
			continue
		}
		seg := lss.SegmentImage{
			State: lss.SegmentOpen,
			Group: lss.GroupID(img.header.group),
			Born:  sim.WriteClock(img.header.born),
		}
		lastW := img.header.born
		for _, c := range img.chunks {
			lastW = c.w
			maxNow = max(maxNow, c.now)
			for _, v := range c.vers {
				maxSeq = max(maxSeq, uint64(v))
			}
			seg.LBAs = append(seg.LBAs, c.lbas...)
			seg.Versions = append(seg.Versions, c.vers...)
		}
		maxW = max(maxW, lastW)
		switch {
		case img.sealed:
			seg.State, seg.SealedW = lss.SegmentSealed, sim.WriteClock(img.sealedW)
			maxW = max(maxW, img.sealedW)
		case len(img.chunks) == segChunks:
			// A full segment without its seal record sealed before the
			// commit that would have synced the record: only full
			// segments seal, and at the write clock of their last
			// chunk, so the record adds nothing the chunks do not say.
			// The group's next segment may already hold durable chunks
			// (a SyncAlways append syncs inline), so leaving it open
			// would give the group two.
			seg.State, seg.SealedW = lss.SegmentSealed, sim.WriteClock(lastW)
			st.segs[id].sealed = true
		case img.header.epoch < newest[img.header.group]:
			// A short predecessor behind a durable successor: its lost
			// tail was never synced, and the group has moved on. Seal
			// it padded to full, the way a drain pads a chunk.
			for len(seg.LBAs) < segBlocks {
				seg.LBAs = append(seg.LBAs, lss.PadSlot)
				seg.Versions = append(seg.Versions, 0)
			}
			seg.State, seg.SealedW = lss.SegmentSealed, sim.WriteClock(lastW)
			st.segs[id].sealed = true
			stats.PromotedSegments++
		}
		if seg.State == lss.SegmentSealed {
			stats.SealedSegments++
		}
		stats.Segments++
		segs[id] = seg
	}

	store, err := lss.RecoverImage(lss.Image{
		W:         sim.WriteClock(maxW),
		AppendSeq: int64(maxSeq),
		Now:       sim.Time(maxNow),
		Segments:  segs,
	}, cfg, p, deps...)
	if err != nil {
		return nil, stats, fmt.Errorf("segfile: recover: %w", err)
	}
	stats.Blocks = store.LiveBlocks()
	stats.TornRecords = int(st.tornRecords.Load())
	stats.CorruptFiles += int(st.corruptFiles)
	st.corruptFiles = int64(stats.CorruptFiles)
	st.recoveredSegs.Store(int64(stats.Segments))
	st.recoveredBlocks.Store(stats.Blocks)
	st.lastW, st.lastSeq, st.lastNow = maxW, maxSeq, maxNow
	st.images = nil
	return store, stats, nil
}
