package segfile

import (
	"fmt"
	"sync"
)

// The log commit. SealSegment, FreeSegment and Checkpoint only record
// their transition under the caller's lock; a commit makes them
// durable, in this order:
//
//  1. write the checkpoint slot if one is due;
//  2. sync the log file once: every record written before the commit
//     took its snapshot — seals, relocations, open-segment tails — is
//     now durable, however many segments they touched;
//  3. if victims are queued, zero what each one's incarnation wrote,
//     then sync once more: the frees are now durable;
//  4. hand the victims back: their ids are reusable, and the caller's
//     store may reallocate them (lss.Store.DurableCommitted).
//
// So a commit is one sync, or two when it frees: the count does not
// grow with the segments it covers or the victims it frees. The second
// sync is the free's own ordering point and cannot fold into the
// first: pages reach the disk in any order before a sync returns, so a
// victim zeroed before step 2 finished could vanish while the blocks
// GC relocated out of it did not yet persist.
//
// The invariants:
//
//   - A victim is zeroed only after a sync covering every append made
//     before its free: step 2 runs after the snapshot, and a batch runs
//     only after the one before it finished without error.
//   - A segment id is reusable only after the sync covering its zeroes
//     (step 4 hands back exactly the victims step 3 completed), so a
//     new incarnation's header always lands on zeros.
//   - At most one commit runs its syscalls at a time (commitMu), and
//     after boot only commits write slots or zero regions; appends
//     touch only live regions, never a retiring one.
//   - The first commit error is returned by every later commit, and the
//     caller latches it (lss.Store.DurableErr).
//
// The lock order is the caller's lock, then commitMu: nothing holding
// commitMu waits for the caller's lock, so a commit blocked on commitMu
// under the caller's lock (Commit) only waits out another's syscalls.

// victim is a freed segment id and how many bytes of its region its
// incarnation wrote.
type victim struct {
	id  int
	len int64
}

// batch is the work one commit snapshotted, and how far it got.
type batch struct {
	seals   int
	victims []victim
	slot    []byte // the due checkpoint slot, nil when none is
	slotOff int64

	freed bool // step 3 finished
	err   error
}

// Pending reports recorded frees, an explicit checkpoint or a full
// count of waiting seals (SealSegment) that no commit has taken yet;
// fewer seals and a cadence checkpoint ride along with them. It is
// safe without the caller's lock, so a committer can skip an idle log
// for the price of one atomic load.
func (st *Store) Pending() bool { return st.pending.Load() }

// Commit implements lss.LogCommitter: it runs a whole commit with the
// caller's lock held — waiting out a commit already running, and for
// recorded seals alone too — and returns every victim handed back
// since the last hand-back, this commit's and any finished off-lock
// one's.
func (st *Store) Commit() (freed []int, err error) {
	if b := st.begin(true); b != nil {
		st.run(b)
	}
	return st.end()
}

// CommitOutside runs commits until nothing is pending, holding mu — the
// lock the caller serializes every other call into the store with —
// only to snapshot and to hand back: the writes and syncs run without
// it. release receives each hand-back under mu. If another commit is
// running it returns at once: that commit re-checks Pending after its
// syscalls, so nothing recorded is left behind.
func (st *Store) CommitOutside(mu sync.Locker, release func(freed []int, err error)) {
	for st.pending.Load() {
		mu.Lock()
		b := st.begin(false)
		mu.Unlock()
		if b == nil {
			return
		}
		st.run(b)
		mu.Lock()
		freed, err := st.end()
		release(freed, err)
		mu.Unlock()
		if err != nil {
			return
		}
	}
}

// begin takes commitMu and snapshots the recorded work into a batch,
// with the caller's lock held. An inline commit waits for commitMu and
// commits seals alone; an off-lock one only tries, and commits only
// what is Pending. It returns nil, commitMu released, when it got no
// commitMu or there is nothing to do.
func (st *Store) begin(inline bool) *batch {
	if inline {
		st.commitMu.Lock()
	} else if !st.commitMu.TryLock() {
		return nil
	}
	if st.closed || !st.pending.Load() && !(inline && st.seals > 0) {
		st.commitMu.Unlock()
		return nil
	}
	st.pending.Store(false)
	b := &batch{seals: st.seals, victims: st.victims}
	st.seals, st.victims = 0, nil
	if st.ckptDue {
		st.ckptDue = false
		b.slot, b.slotOff = st.nextSlot()
	}
	// The batch's first sync covers every write made so far.
	st.dirty = false
	return b
}

// run issues a batch's syscalls without the caller's lock, queues the
// batch for the hand-back and releases commitMu.
func (st *Store) run(b *batch) {
	if st.commitErr != nil {
		b.err = st.commitErr
	} else if b.err = st.syscalls(b); b.err != nil {
		st.commitErr = b.err
	}
	st.doneMu.Lock()
	st.done = append(st.done, b)
	st.doneMu.Unlock()
	st.commitMu.Unlock()
}

// syscalls is steps 1–3 of a commit.
func (st *Store) syscalls(b *batch) error {
	if b.slot != nil {
		if err := st.writeSlot(b.slot, b.slotOff); err != nil {
			return fmt.Errorf("segfile: checkpoint: %w", err)
		}
	}
	if err := st.timedSync(); err != nil {
		return fmt.Errorf("segfile: commit sync: %w", err)
	}
	st.syncedSegments.Add(int64(b.seals))
	if b.slot != nil {
		st.checkpoints.Add(1)
	}
	if len(b.victims) == 0 {
		return nil
	}
	for _, v := range b.victims {
		if _, err := st.f.WriteAt(make([]byte, v.len), st.lay.regionOff(v.id)); err != nil {
			return fmt.Errorf("segfile: free segment %d: %w", v.id, err)
		}
	}
	if err := st.timedSync(); err != nil {
		return fmt.Errorf("segfile: free sync: %w", err)
	}
	b.freed = true
	return nil
}

// end is step 4 for every batch whose syscalls finished, with the
// caller's lock held: the victims of every batch that freed are
// reusable, and their ids are returned with the first error.
func (st *Store) end() (freed []int, err error) {
	st.doneMu.Lock()
	done := st.done
	st.done = nil
	st.doneMu.Unlock()
	for _, b := range done {
		if b.err != nil && err == nil {
			err = b.err
		}
		if !b.freed {
			continue
		}
		for _, v := range b.victims {
			delete(st.retiring, v.id)
			freed = append(freed, v.id)
		}
	}
	return freed, err
}
