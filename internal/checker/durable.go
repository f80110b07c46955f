package checker

import (
	"math"
	"sync"

	"adapt/internal/lss"
	"adapt/internal/sim"
)

// DurableLedger is the crash oracle for lss.DurableLog backends. It
// interposes between the store and a real backend (internal/segfile),
// recording exactly the transitions the backend acknowledged: an
// AppendChunk that returned nil is durable, a free destroyed its
// segment's image once the backend acknowledged it, and nothing else
// moves the mapping. The ledger is itself a lss.LogCommitter: a free
// is acknowledged when the Commit that covers it hands its id back
// (when the inner log commits, else at once). From that ledger,
// ExpectedDurable computes the mapping a post-crash recovery must roll
// forward to — the durable analogue of ExpectedRecovery, suitable for
// CompareRecovered.
//
// The exactness argument: the recovered mapping is a pure function of
// the surviving chunk records and segment liveness, and under a
// sync-per-append discipline (segfile.SyncAlways) an operation is
// durable if and only if the backend acked it. Seal, open, and
// checkpoint acks carry no mapping state (a seal only promotes a
// segment whose chunks are all already durable; a checkpoint is only a
// clock floor), so the ledger can ignore their ack-ness entirely.
// Under relaxed disciplines acked-but-unsynced appends may survive a
// crash or not; the ledger then yields an upper bound, not an equality,
// and DurableFloor the lower one.
type DurableLedger struct {
	mu    sync.Mutex
	inner lss.DurableLog
	segs  map[int]map[int]ledgerChunk // seg id -> chunk idx -> slots
	// pending are frees recorded since the last commit; seq numbers
	// appended chunks, and floorSeq is the last chunk every backend file
	// had synced when a commit freed a victim.
	pending  []int
	seq      int64
	floorSeq int64
}

var _ lss.LogCommitter = (*DurableLedger)(nil)

// ledgerChunk is one acked chunk's slot image, copied out of the
// DurableChunk (whose slices alias store memory).
type ledgerChunk struct {
	lbas []int64
	vers []int64
	seq  int64
}

// NewDurableLedger wraps inner, which may be nil to run the ledger as
// a pure in-memory recorder.
func NewDurableLedger(inner lss.DurableLog) *DurableLedger {
	return &DurableLedger{inner: inner, segs: make(map[int]map[int]ledgerChunk)}
}

// OpenSegment forwards and, on ack, starts a fresh (empty) incarnation
// for id.
func (l *DurableLedger) OpenSegment(id int, group lss.GroupID, born sim.WriteClock) error {
	if l.inner != nil {
		if err := l.inner.OpenSegment(id, group, born); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.segs[id] = make(map[int]ledgerChunk)
	l.mu.Unlock()
	return nil
}

// AppendChunk forwards and, on ack, records the chunk's slot image.
func (l *DurableLedger) AppendChunk(c lss.DurableChunk) error {
	if l.inner != nil {
		if err := l.inner.AppendChunk(c); err != nil {
			return err
		}
	}
	lc := ledgerChunk{
		lbas: append([]int64(nil), c.LBAs...),
		vers: append([]int64(nil), c.Vers...),
	}
	l.mu.Lock()
	l.seq++
	lc.seq = l.seq
	if l.segs[c.Segment] == nil {
		l.segs[c.Segment] = make(map[int]ledgerChunk)
	}
	l.segs[c.Segment][c.Chunk] = lc
	l.mu.Unlock()
	return nil
}

// SealSegment forwards; seals carry no mapping state.
func (l *DurableLedger) SealSegment(id int, sealedW sim.WriteClock) error {
	if l.inner != nil {
		return l.inner.SealSegment(id, sealedW)
	}
	return nil
}

// FreeSegment forwards and, on ack, queues the segment's image for
// destruction at the next Commit.
func (l *DurableLedger) FreeSegment(id int) error {
	if l.inner != nil {
		if err := l.inner.FreeSegment(id); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.pending = append(l.pending, id)
	l.mu.Unlock()
	return nil
}

// Commit implements lss.LogCommitter: it forwards to the inner log's
// Commit and destroys the images of the victims that come back. Over
// a log that does not commit, every recorded free comes back at once.
// A commit that frees anything synced every file first, so every chunk
// appended before it is durable: the floor moves up to them.
func (l *DurableLedger) Commit() ([]int, error) {
	l.mu.Lock()
	start := l.seq
	freed := append([]int(nil), l.pending...)
	l.mu.Unlock()
	var err error
	if c, ok := l.inner.(lss.LogCommitter); ok {
		freed, err = c.Commit()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(freed) > 0 {
		l.floorSeq = start
	}
	for _, id := range freed {
		delete(l.segs, id)
		for i, p := range l.pending {
			if p == id {
				l.pending = append(l.pending[:i], l.pending[i+1:]...)
				break
			}
		}
	}
	return freed, err
}

// Checkpoint forwards; checkpoints carry no mapping state.
func (l *DurableLedger) Checkpoint(w sim.WriteClock, appendSeq int64, now sim.Time) error {
	if l.inner != nil {
		return l.inner.Checkpoint(w, appendSeq, now)
	}
	return nil
}

// ExpectedDurable computes the mapping recovery must produce from the
// acked state: for every LBA the highest-versioned slot across all
// live (never-freed-since) segment incarnations, primary or shadow —
// the same roll-forward lss.Recover and ExpectedRecovery perform.
func (l *DurableLedger) ExpectedDurable() map[int64]RecoveredLoc {
	return l.expected(math.MaxInt64)
}

// DurableFloor is ExpectedDurable over the chunks a freeing commit
// proved synced: under any sync discipline, recovery must surface each
// of its LBAs at no lower a version — in particular, a victim whose
// free did not complete still holds its blocks, and one whose free did
// left them in synced chunks.
func (l *DurableLedger) DurableFloor() map[int64]RecoveredLoc {
	l.mu.Lock()
	floor := l.floorSeq
	l.mu.Unlock()
	return l.expected(floor)
}

// expected is the roll-forward over live chunks numbered upto or less.
func (l *DurableLedger) expected(upto int64) map[int64]RecoveredLoc {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int64]RecoveredLoc)
	for id, chunks := range l.segs {
		for ci, c := range chunks {
			if c.seq > upto {
				continue
			}
			for i := range c.lbas {
				lba, ok := lss.DecodeSlot(c.lbas[i])
				if !ok {
					continue
				}
				ver := c.vers[i]
				if best, seen := out[lba]; !seen || ver > best.Version {
					out[lba] = RecoveredLoc{
						Seg:     id,
						Slot:    ci*len(c.lbas) + i,
						Version: ver,
					}
				}
			}
		}
	}
	return out
}
