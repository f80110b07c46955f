package lss

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adapt/internal/sim"
)

// Checkpointing and crash recovery. A log-structured store's durable
// state is exactly its flushed segment summaries: per-slot block
// addresses plus append versions. WriteCheckpoint serializes that
// state; Recover rebuilds a store from it, reconstructing the LBA
// mapping by choosing, for each block, the durable copy with the
// highest append version — the roll-forward a real LSS performs after
// a crash. Blocks buffered in open chunks that were never flushed are
// lost (crash semantics) unless a shadow copy persisted them
// (§3.3's durability argument for shadow append), in which case the
// mapping recovers from the shadow slot.

var ckptMagic = []byte("ADPTCK01")

// ErrBadCheckpoint reports a malformed or mismatched checkpoint.
var ErrBadCheckpoint = errors.New("lss: bad checkpoint")

// WriteCheckpoint serializes the store's durable state. Only flushed
// chunks are included: pending blocks in open chunks are not durable
// and do not survive (exactly as in a crash; call Drain first for a
// clean shutdown image).
func (s *Store) WriteCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putI := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	// Geometry fingerprint, validated on recovery.
	for _, v := range []uint64{
		uint64(s.cfg.BlockSize), uint64(s.cfg.ChunkBlocks),
		uint64(s.cfg.SegmentChunks), uint64(s.cfg.UserBlocks),
		uint64(len(s.segments)), uint64(len(s.groups)),
	} {
		if err := putU(v); err != nil {
			return err
		}
	}
	if err := putU(uint64(s.w)); err != nil {
		return err
	}
	if err := putU(uint64(s.appendSeq)); err != nil {
		return err
	}
	if err := putU(uint64(s.now)); err != nil {
		return err
	}
	for _, seg := range s.segments {
		flushed := seg.written
		if seg.state == segOpen {
			flushed -= seg.written % s.chunkBlocks // drop the unflushed tail
		}
		if err := putU(uint64(seg.state)); err != nil {
			return err
		}
		if err := putU(uint64(seg.group)); err != nil {
			return err
		}
		if err := putU(uint64(seg.born)); err != nil {
			return err
		}
		if err := putU(uint64(seg.sealedW)); err != nil {
			return err
		}
		if err := putU(uint64(flushed)); err != nil {
			return err
		}
		for i := 0; i < flushed; i++ {
			if err := putI(seg.lbas[i]); err != nil {
				return err
			}
			if err := putI(seg.vers[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Image is a store's durable state, decoded from a WriteCheckpoint
// stream or rebuilt from a segment log (internal/segfile): the clock
// floors and every segment's flushed slots. RecoverImage validates it
// and rolls it forward into a live store.
type Image struct {
	W         sim.WriteClock
	AppendSeq int64
	Now       sim.Time
	// Segments holds one entry per segment id; the zero value is a free
	// segment.
	Segments []SegmentImage
}

// SegmentImage is one segment's durable state. LBAs and Versions are
// its flushed slots in the store's slot encoding (see DecodeSlot): a
// sealed segment's every slot, an open segment's whole flushed chunks.
type SegmentImage struct {
	State         SegmentState
	Group         GroupID
	Born, SealedW sim.WriteClock
	LBAs          []int64
	Versions      []int64
}

// Recover rebuilds a store from a checkpoint written by
// WriteCheckpoint. cfg and policy must match the original geometry
// (the policy's own state is rebuilt cold, as after any restart).
// Traffic metrics restart from zero; only durable state is restored.
// deps, if given, is wired in after the rebuild so an attached
// telemetry set observes the recovered-segment counters.
func Recover(r io.Reader, cfg Config, p Policy, deps ...Deps) (*Store, error) {
	s := New(cfg, p)
	img, err := s.decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return s.recover(img, deps)
}

// RecoverImage rebuilds a store from img, as Recover does from a
// checkpoint stream: cfg and p must match the geometry and group count
// the image was taken with, and deps is wired in after the rebuild.
func RecoverImage(img Image, cfg Config, p Policy, deps ...Deps) (*Store, error) {
	return New(cfg, p).recover(img, deps)
}

// decodeCheckpoint parses a WriteCheckpoint stream, holding its geometry
// fingerprint against s, which bounds every allocation.
func (s *Store) decodeCheckpoint(r io.Reader) (Image, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return Image{}, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if string(head) != string(ckptMagic) {
		return Image{}, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, head)
	}
	// getU reads one uvarint field; the first failed read is kept, named
	// by its field, and reported once the caller checks rerr.
	var rerr error
	getU := func(field string, a ...any) uint64 {
		v, err := binary.ReadUvarint(br)
		if err != nil && rerr == nil {
			rerr = fmt.Errorf("%w: %s: %v", ErrBadCheckpoint, fmt.Sprintf(field, a...), err)
		}
		return v
	}

	want := []uint64{
		uint64(s.cfg.BlockSize), uint64(s.cfg.ChunkBlocks),
		uint64(s.cfg.SegmentChunks), uint64(s.cfg.UserBlocks),
		uint64(len(s.segments)), uint64(len(s.groups)),
	}
	names := []string{"block size", "chunk blocks", "segment chunks", "user blocks", "segments", "groups"}
	for i, w := range want {
		got := getU("geometry")
		if rerr != nil {
			return Image{}, rerr
		}
		if got != w {
			return Image{}, fmt.Errorf("%w: %s %d, store built with %d", ErrBadCheckpoint, names[i], got, w)
		}
	}
	img := Image{
		W:         sim.WriteClock(getU("write clock")),
		AppendSeq: int64(getU("append seq")),
		Now:       sim.Time(getU("clock")),
		Segments:  make([]SegmentImage, len(s.segments)),
	}
	for id := range img.Segments {
		if rerr != nil {
			return Image{}, rerr
		}
		si := &img.Segments[id]
		si.State = SegmentState(getU("segment %d state", id))
		si.Group = GroupID(getU("segment %d group", id))
		si.Born = sim.WriteClock(getU("segment %d born", id))
		si.SealedW = sim.WriteClock(getU("segment %d sealedW", id))
		flushed := getU("segment %d flushed", id)
		if rerr != nil {
			return Image{}, rerr
		}
		if flushed > uint64(s.segBlocks) {
			return Image{}, fmt.Errorf("%w: segment %d flushed %d > %d", ErrBadCheckpoint, id, flushed, s.segBlocks)
		}
		si.LBAs, si.Versions = make([]int64, flushed), make([]int64, flushed)
		for i := range si.LBAs {
			var err error
			if si.LBAs[i], err = binary.ReadVarint(br); err != nil {
				return Image{}, fmt.Errorf("%w: segment %d slot %d: %v", ErrBadCheckpoint, id, i, err)
			}
			if si.Versions[i], err = binary.ReadVarint(br); err != nil {
				return Image{}, fmt.Errorf("%w: segment %d ver %d: %v", ErrBadCheckpoint, id, i, err)
			}
		}
	}
	return img, rerr
}

// recover validates img against s's geometry, installs it and rolls the
// mapping forward: for each block, the durable copy with the highest
// append version wins.
func (s *Store) recover(img Image, deps []Deps) (*Store, error) {
	if len(img.Segments) != len(s.segments) {
		return nil, fmt.Errorf("%w: segments %d, store built with %d", ErrBadCheckpoint, len(img.Segments), len(s.segments))
	}
	s.w = img.W
	s.appendSeq = img.AppendSeq
	s.now = img.Now

	s.free = s.free[:0]
	bestVer := make([]int64, s.cfg.UserBlocks)
	for _, seg := range s.segments {
		si := &img.Segments[seg.id]
		flushed := len(si.LBAs)
		if flushed > s.segBlocks {
			return nil, fmt.Errorf("%w: segment %d flushed %d > %d", ErrBadCheckpoint, seg.id, flushed, s.segBlocks)
		}
		if len(si.Versions) != flushed {
			return nil, fmt.Errorf("%w: segment %d has %d versions for %d slots", ErrBadCheckpoint, seg.id, len(si.Versions), flushed)
		}
		if si.State > SegmentSealed || si.Group < 0 || int(si.Group) >= len(s.groups) {
			return nil, fmt.Errorf("%w: segment %d state/group out of range", ErrBadCheckpoint, seg.id)
		}
		if si.State == SegmentOpen && flushed%s.chunkBlocks != 0 {
			// WriteCheckpoint truncates open segments to the flushed-chunk
			// boundary; a ragged count would corrupt chunk accounting on
			// the next append.
			return nil, fmt.Errorf("%w: open segment %d flushed %d not chunk-aligned", ErrBadCheckpoint, seg.id, flushed)
		}
		if si.State == SegmentSealed && flushed != s.segBlocks {
			// Segments seal only when full; a short sealed segment would
			// sit in the GC candidate set with slots that never existed.
			return nil, fmt.Errorf("%w: sealed segment %d has %d/%d slots", ErrBadCheckpoint, seg.id, flushed, s.segBlocks)
		}
		seg.state = segState(si.State)
		seg.group = si.Group
		seg.born = si.Born
		seg.sealedW = si.SealedW
		seg.written = flushed
		seg.valid = 0
		copy(seg.lbas, si.LBAs)
		copy(seg.vers, si.Versions)
		for i, v := range si.LBAs {
			lba, ok := decodeSlot(v)
			if !ok {
				continue
			}
			if lba < 0 || lba >= s.cfg.UserBlocks {
				return nil, fmt.Errorf("%w: segment %d slot %d lba %d out of range", ErrBadCheckpoint, seg.id, i, lba)
			}
			if seg.state == segFree {
				// Reclaimed segments keep their stale slot images but hold
				// no durable data. A stale shadow copy can outversion the
				// primary it duplicated (the shadow appends after it), never
				// a newer write, so skipping free segments loses nothing —
				// and letting one win would map an LBA into the free pool.
				continue
			}
			// Roll-forward: the highest-versioned durable copy wins.
			if ver := si.Versions[i]; ver > bestVer[lba] {
				if old := s.mapping[lba]; old >= 0 {
					s.segments[old/int64(s.segBlocks)].valid--
				}
				bestVer[lba] = ver
				s.mapping[lba] = int64(seg.id)*int64(s.segBlocks) + int64(i)
				seg.valid++
			}
		}
	}
	// Rebuild the free pool and the groups' open segments.
	for i := len(s.segments) - 1; i >= 0; i-- {
		seg := s.segments[i]
		if seg.state != segFree {
			s.recoveredSegments++
			s.recoveredBlocks += int64(seg.valid)
		}
		switch seg.state {
		case segFree:
			s.free = append(s.free, seg.id)
		case segOpen:
			gr := s.groups[seg.group]
			if gr.open != nil {
				return nil, fmt.Errorf("%w: group %d has two open segments", ErrBadCheckpoint, seg.group)
			}
			gr.open = seg
			// A fully written open segment (tail truncation landed on
			// the segment boundary) seals immediately.
			if seg.written == s.segBlocks {
				s.seal(gr)
			}
		}
	}
	// Segment state was rebuilt wholesale above, bypassing the victim
	// index hooks; reconstruct the index (and seal sequences) from it.
	s.rebuildVictimIndex()
	s.applyDeps(deps)
	return s, nil
}
