package lss

import (
	"adapt/internal/sim"
)

// DurableLog is the persistence seam beneath the store: a backend that
// records segment lifecycle transitions and flushed chunks durably
// (internal/segfile implements it over a directory of segment files).
// The store calls it synchronously from inside its own mutation paths,
// so implementations must not call back into the store.
//
// The contract mirrors the store's in-memory durability model exactly:
// a chunk is the unit of durability (AppendChunk fires once per flushed
// chunk, never for the buffered open-chunk tail), segments seal
// write-ahead (every chunk of a segment is appended before SealSegment
// runs, and recovery must never honor a seal whose chunks did not all
// survive), and FreeSegment destroys the durable image of a reclaimed
// victim only after GC has migrated its live blocks into chunks already
// appended through this same interface — the backend must make those
// chunks durable before the victim's image goes. A nil error from
// AppendChunk means the chunk is durable to the backend's configured
// sync discipline; a nil error from OpenSegment promises only that the
// incarnation can be appended to, since an empty incarnation carries
// nothing a crash could lose. A plain DurableLog makes SealSegment,
// FreeSegment and Checkpoint durable before returning nil; a
// LogCommitter only records them, and they are durable once a Commit
// covering them returns. The first non-nil error latches the store
// read-only-durable (see DurableErr).
type DurableLog interface {
	// OpenSegment records that segment id began a new incarnation for
	// group at write clock born. It is called before any AppendChunk
	// for the incarnation.
	OpenSegment(id int, group GroupID, born sim.WriteClock) error
	// AppendChunk records one flushed chunk. The slices in c alias
	// store memory and must not be retained past the call.
	AppendChunk(c DurableChunk) error
	// SealSegment records that segment id sealed at write clock
	// sealedW. All SegmentChunks chunks have been appended first.
	SealSegment(id int, sealedW sim.WriteClock) error
	// FreeSegment destroys the durable image of segment id after GC
	// reclaimed it. After it returns nil, recovery must never surface
	// the incarnation's slots again.
	FreeSegment(id int) error
	// Checkpoint persists the store clocks (write clock, append
	// sequence, simulated time) as a recovery floor.
	Checkpoint(w sim.WriteClock, appendSeq int64, now sim.Time) error
}

// LogCommitter is a DurableLog that records seals, frees and
// checkpoints under the store's lock and makes them durable in Commit,
// so their fsyncs can run outside that lock (internal/segfile is one:
// its CommitOutside runs the syncs unlocked and hands the victims back
// through Store.DurableCommitted). The store keeps a freed segment
// retired — free to every GC decision, but never allocated — until a
// commit hands its id back, so a victim's durable image is never
// overwritten by its next incarnation before its free is durable.
// Allocation that finds only retired segments commits inline
// (Metrics.DurableInlineCommits).
type LogCommitter interface {
	DurableLog
	// Commit makes every recorded transition durable: it syncs the
	// files holding appended chunks, then destroys the queued victims'
	// images, then writes a due checkpoint. It returns the ids of the
	// victims whose free is now durable — even alongside an error, for
	// the ones completed before it.
	Commit() (freed []int, err error)
}

// DurableChunk is one flushed chunk as handed to DurableLog.AppendChunk:
// the physical location, the clocks at flush time, and the per-slot
// address encoding and append versions. LBAs uses the store's slot
// encoding (primary addresses >= 0, padding, shadow copies); decode
// with DecodeSlot. len(LBAs) == len(Vers) == Config.ChunkBlocks.
type DurableChunk struct {
	Segment int
	Chunk   int
	Group   GroupID
	W       sim.WriteClock
	Now     sim.Time
	LBAs    []int64
	Vers    []int64
}

// DecodeSlot decodes a slot value from DurableChunk.LBAs (or a
// checkpoint image): the block address it refers to — primary or
// shadow — and whether the slot carries data at all (padding does
// not).
func DecodeSlot(v int64) (lba int64, ok bool) { return decodeSlot(v) }

// DurableErr returns the latched durable-backend error, nil while the
// backend is healthy (or absent). The first DurableLog call that fails
// latches the store: the in-memory image stays internally consistent,
// but every subsequent Write/WriteBlock/Trim returns the error so no
// further acknowledgements can outrun what the backend persisted.
func (s *Store) DurableErr() error { return s.durableErr }

// durableOpen notifies the backend of a fresh segment incarnation.
func (s *Store) durableOpen(seg *segment) {
	if s.durable == nil || s.durableErr != nil {
		return
	}
	if err := s.durable.OpenSegment(seg.id, seg.group, seg.born); err != nil {
		s.durableErr = err
	}
}

// durableAppend hands gr's just-flushed chunk to the backend.
func (s *Store) durableAppend(gr *group) {
	if s.durable == nil || s.durableErr != nil {
		return
	}
	seg := gr.open
	ci := seg.written/s.chunkBlocks - 1
	start := ci * s.chunkBlocks
	err := s.durable.AppendChunk(DurableChunk{
		Segment: seg.id,
		Chunk:   ci,
		Group:   gr.id,
		W:       s.w,
		Now:     s.now,
		LBAs:    seg.lbas[start : start+s.chunkBlocks],
		Vers:    seg.vers[start : start+s.chunkBlocks],
	})
	if err != nil {
		s.durableErr = err
	}
}

// durableSeal notifies the backend that seg sealed.
func (s *Store) durableSeal(seg *segment) {
	if s.durable == nil || s.durableErr != nil {
		return
	}
	if err := s.durable.SealSegment(seg.id, seg.sealedW); err != nil {
		s.durableErr = err
	}
}

// durableFree notifies the backend that seg was reclaimed.
func (s *Store) durableFree(seg *segment) {
	if s.durable == nil || s.durableErr != nil {
		return
	}
	if err := s.durable.FreeSegment(seg.id); err != nil {
		s.durableErr = err
	}
}

// DurableCommitted hands back a commit that ran outside the store's
// lock (segfile.Store.CommitOutside): the freed victims leave the
// retired list for the free pool, and an error latches the store.
// Callers must serialize it with all other store use, exactly as for
// Write.
func (s *Store) DurableCommitted(freed []int, err error) {
	if err != nil && s.durableErr == nil {
		s.durableErr = err
	}
	for _, id := range freed {
		for i, r := range s.retired {
			if r == id {
				s.retired = append(s.retired[:i], s.retired[i+1:]...)
				s.free = append(s.free, id)
				break
			}
		}
	}
}

// CommitDurable runs the log's commit inline (under the caller's lock,
// like every store method) and takes back what it freed. A no-op
// unless the log is a LogCommitter.
func (s *Store) CommitDurable() {
	if s.committer == nil || s.durableErr != nil {
		return
	}
	s.DurableCommitted(s.committer.Commit())
}

// commitInline is allocation's way out of a pool emptied into the
// retired list: commit now and count it. A latched log commits
// nothing, so its retired segments go straight back to the pool —
// nothing more reaches the disk, and the in-memory image stays usable.
func (s *Store) commitInline() {
	s.metrics.DurableInlineCommits++
	s.CommitDurable()
	if s.durableErr != nil {
		s.free = append(s.free, s.retired...)
		s.retired = s.retired[:0]
	}
}

// durableCheckpoint persists the clock floor.
func (s *Store) durableCheckpoint() {
	if s.durable == nil || s.durableErr != nil {
		return
	}
	if err := s.durable.Checkpoint(s.w, s.appendSeq, s.now); err != nil {
		s.durableErr = err
	}
}
