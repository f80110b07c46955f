package segfile

import (
	"fmt"

	"adapt/internal/lss"
	"adapt/internal/sim"
)

// Recovery: the directory scan (done in Open) produced one segImage
// per surviving segment file. Recover validates each image against the
// configured geometry, degrades what a crash could legitimately leave
// behind (a torn open tail, a full segment whose seal record was not
// yet synced), fills an
// lss.Image from the result, and lets lss.RecoverImage validate it and
// do the roll-forward — so the on-disk log and the in-memory checkpoint
// share one recovery semantics, and the crash oracle
// (checker.CompareRecovered) applies to both unchanged.

// RecoveryStats reports what Recover rolled forward.
type RecoveryStats struct {
	// Segments and SealedSegments count surviving (non-free) segment
	// incarnations, and how many of them were sealed.
	Segments       int
	SealedSegments int
	// Blocks is the number of LBAs mapped after roll-forward.
	Blocks int64
	// TornRecords counts record tails truncated across all files
	// (syscall-torn appends, geometry-invalid chunks, degraded seals).
	TornRecords int
	// CorruptFiles counts files dropped whole (bad header, bad name,
	// out-of-range id, undecodable checkpoint).
	CorruptFiles int
	// CheckpointLoaded reports whether a valid clock-floor checkpoint
	// was found.
	CheckpointLoaded bool
}

// Recover rebuilds a live lss.Store from the scanned directory. cfg
// and p must match the geometry and group count the directory was
// written with. deps is wired into the recovered store; callers that
// want the store to keep persisting must include Durable: st in it.
func (st *Store) Recover(cfg lss.Config, p lss.Policy, deps ...lss.Deps) (*lss.Store, RecoveryStats, error) {
	var stats RecoveryStats
	if p == nil {
		return nil, stats, fmt.Errorf("segfile: recover: nil policy")
	}
	total := cfg.TotalSegments(p.Groups())
	eff := cfg.GeometryDefaults()
	chunkBlocks := eff.ChunkBlocks
	segChunks := eff.SegmentChunks

	if st.ckpt != nil {
		stats.CheckpointLoaded = true
		if g := st.ckpt.geo; g != (geometry{}) {
			want := geometry{
				blockSize:     eff.BlockSize,
				chunkBlocks:   eff.ChunkBlocks,
				segmentChunks: eff.SegmentChunks,
				userBlocks:    eff.UserBlocks,
			}
			if g != want {
				return nil, stats, fmt.Errorf("segfile: recover: checkpoint geometry %+v does not match configuration %+v", g, want)
			}
		}
	}

	// Validate every image against the geometry, truncating what a
	// crash (or corruption) left unusable, and take the clock maxima.
	var maxW, maxSeq, maxNow uint64
	if st.ckpt != nil {
		maxW, maxSeq, maxNow = st.ckpt.w, st.ckpt.appendSeq, st.ckpt.now
	}
	segs := make([]lss.SegmentImage, total)
	for id, img := range st.images {
		if id < 0 || id >= total {
			// A segment id the configured store cannot hold: with the
			// right configuration this never parses; drop it whole.
			st.dropFile(id)
			stats.CorruptFiles++
			continue
		}
		keep := len(img.chunks)
		if keep > segChunks {
			keep = segChunks
		}
		for i := 0; i < keep; i++ {
			if len(img.chunks[i].lbas) != chunkBlocks || len(img.chunks[i].vers) != chunkBlocks {
				keep = i
				break
			}
		}
		entry := st.segs[id]
		if keep < len(img.chunks) {
			// Geometry-invalid or surplus chunks: the durable prefix
			// ends before them. Truncate the file so future appends
			// land at a parseable boundary.
			stats.TornRecords += len(img.chunks) - keep
			img.chunks = img.chunks[:keep]
			end := int64(img.header.dataStart)
			if keep > 0 {
				end = img.chunkEnds[keep-1]
			}
			if err := entry.f.Truncate(end); err != nil {
				return nil, stats, fmt.Errorf("segfile: recover truncate segment %d: %w", id, err)
			}
			entry.off = end
			entry.chunks = keep
			entry.sealed = false
			img.sealed = false
		}
		sealed := keep == segChunks
		if img.sealed && !sealed {
			// A seal record without its full complement of chunks can
			// only come from corruption (seals are write-ahead: data
			// first). Degrade to open and drop the record, or appends
			// after recovery would land unreachable behind it.
			stats.TornRecords++
			if err := entry.f.Truncate(img.sealOff); err != nil {
				return nil, stats, fmt.Errorf("segfile: recover unseal segment %d: %w", id, err)
			}
			entry.off = img.sealOff
			entry.sealed = false
		}
		seg := lss.SegmentImage{
			State: lss.SegmentOpen,
			Group: lss.GroupID(img.header.group),
			Born:  sim.WriteClock(img.header.born),
		}
		if sealed {
			// A full segment without its seal record sealed before the
			// commit that would have synced the record: only full
			// segments seal, and at the write clock of their last
			// chunk, so the record adds nothing the chunks do not say.
			// The group's next segment may already hold durable chunks
			// (a SyncAlways append syncs inline), so leaving it open
			// would give the group two.
			sealedW := img.sealedW
			if !img.sealed {
				sealedW = img.chunks[keep-1].w
				entry.sealed = true
			}
			seg.State, seg.SealedW = lss.SegmentSealed, sim.WriteClock(sealedW)
			stats.SealedSegments++
		}
		stats.Segments++

		if img.header.born > maxW {
			maxW = img.header.born
		}
		if sealed && img.sealedW > maxW {
			maxW = img.sealedW
		}
		for _, c := range img.chunks {
			if c.w > maxW {
				maxW = c.w
			}
			if c.now > maxNow {
				maxNow = c.now
			}
			for _, v := range c.vers {
				if uint64(v) > maxSeq {
					maxSeq = uint64(v)
				}
			}
			seg.LBAs = append(seg.LBAs, c.lbas...)
			seg.Versions = append(seg.Versions, c.vers...)
		}
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
	stats.TornRecords += int(st.tornRecords.Load())
	stats.CorruptFiles += int(st.corruptFiles)
	st.tornRecords.Store(int64(stats.TornRecords))
	st.corruptFiles = int64(stats.CorruptFiles)
	st.recoveredSegs.Store(int64(stats.Segments))
	st.recoveredBlocks.Store(stats.Blocks)
	st.lastW, st.lastSeq, st.lastNow = maxW, maxSeq, maxNow
	st.images = nil
	return store, stats, nil
}

// dropFile closes and removes a file that recovery rejected whole.
func (st *Store) dropFile(id int) {
	if entry := st.segs[id]; entry != nil {
		if entry.f != nil {
			_ = entry.f.Close()
		}
		delete(st.segs, id)
	}
	_ = st.fs.Remove(segFileName(id))
	delete(st.images, id)
}
