package segfile

import (
	"fmt"
	"sort"
	"sync"
)

// The log commit. SealSegment, FreeSegment and Checkpoint only record
// their transition under the caller's lock; a commit makes them
// durable, in this order:
//
//  1. fsync each dirty segment file once — every dirty file when frees
//     are queued, else only the sealed ones — then the directory if one
//     of those names was never synced;
//  2. truncate and fsync each queued victim, then the directory if a
//     victim's name was never synced;
//  3. write the checkpoint if one is due;
//  4. hand the victims back: their ids join the pool, and the caller's
//     store may reuse them (lss.Store.DurableCommitted).
//
// The invariants:
//
//   - A victim is truncated only after every file holding chunks
//     appended before its free has been fsynced: step 1 snapshots every
//     dirty file before step 2 runs, and a batch runs only after the
//     one before it finished without error.
//   - A segment id re-enters the pool only after its truncate's fsync
//     (step 4 hands back exactly the victims step 2 completed).
//   - At most one commit runs its syscalls at a time (commitMu).
//   - The syscalls touch only file handles snapshotted under the
//     caller's lock, never a fileState.
//   - The first commit error is returned by every later commit, and the
//     caller latches it (lss.Store.DurableErr).
//
// The lock order is the caller's lock, then commitMu: nothing holding
// commitMu waits for the caller's lock, so a commit blocked on commitMu
// under the caller's lock (Commit) only waits out another's syscalls.

// syncItem is one file a batch syncs or truncates.
type syncItem struct {
	id int
	f  File       // the handle, snapshotted under the caller's lock
	fs *fileState // touched only under the caller's lock, at the hand-back
	// close marks a handle the batch owns: a sealed file's last sync or
	// a victim's truncate.
	close bool
}

// batch is the work one commit snapshotted, and how far it got.
type batch struct {
	files     []syncItem
	fileDir   bool // a synced file's name was never synced
	victims   []syncItem
	victimDir bool
	ckpt      []byte // the due checkpoint, nil when none is

	linked bool // step 1 finished, its directory sync included
	freed  int  // victims whose truncate synced, in queue order
	err    error
}

// Pending reports recorded seals, frees or a checkpoint that no commit
// has taken yet. It is safe without the caller's lock, so a committer
// can skip an idle log for the price of one atomic load.
func (st *Store) Pending() bool { return st.pending.Load() }

// Commit implements lss.LogCommitter: it runs a whole commit with the
// caller's lock held — waiting out a commit already running — and
// returns every victim handed back since the last hand-back, this
// commit's and any finished off-lock one's.
func (st *Store) Commit() (freed []int, err error) {
	if b := st.begin(true); b != nil {
		st.run(b)
	}
	return st.end()
}

// CommitOutside runs commits until nothing is pending, holding mu — the
// lock the caller serializes every other call into the store with —
// only to snapshot and to hand back: the syncs, truncates and the
// checkpoint run without it. release receives each hand-back under mu.
// If another commit is running it returns at once: that commit
// re-checks Pending after its syscalls, so nothing recorded is left
// behind.
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

// begin takes commitMu (waiting for it only if wait) and snapshots the
// recorded work into a batch, with the caller's lock held. It returns
// nil, commitMu released, when it got no commitMu or there is nothing
// to do.
func (st *Store) begin(wait bool) *batch {
	if wait {
		st.commitMu.Lock()
	} else if !st.commitMu.TryLock() {
		return nil
	}
	if st.closed || !st.pending.Load() {
		st.commitMu.Unlock()
		return nil
	}
	st.pending.Store(false)
	b := &batch{}
	all := len(st.victims) > 0
	files := make([]*fileState, 0, len(st.dirty))
	for _, fs := range st.dirty {
		if all || fs.sealed {
			files = append(files, fs)
		}
	}
	// Sealed files first: a group opens its next segment only after
	// sealing the last, so a crash inside step 1 never leaves a group's
	// successor durable ahead of the seal before it. Then by id, so the
	// syscall a crash budget lands on is the same in every run of one
	// workload.
	sort.Slice(files, func(i, j int) bool {
		if files[i].sealed != files[j].sealed {
			return files[i].sealed
		}
		return files[i].id < files[j].id
	})
	for _, fs := range files {
		id := fs.id
		delete(st.dirty, id)
		fs.dirty = false
		it := syncItem{id: id, f: fs.f, fs: fs}
		if fs.sealed {
			// The seal's sync is the file's last: the batch closes it.
			it.close = true
			fs.f = nil
		}
		b.fileDir = b.fileDir || !fs.linked
		b.files = append(b.files, it)
	}
	for _, v := range st.victims {
		b.victims = append(b.victims, syncItem{id: v.id, f: v.f, fs: v, close: true})
		b.victimDir = b.victimDir || !v.linked
		v.f = nil
	}
	st.victims = st.victims[:0]
	if st.ckptDue {
		st.ckptDue = false
		b.ckpt = st.encodeCheckpoint()
	}
	if len(b.files) == 0 && len(b.victims) == 0 && b.ckpt == nil {
		st.commitMu.Unlock()
		return nil
	}
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
	for _, it := range b.files {
		if err := st.timedSync(it.f); err != nil {
			return fmt.Errorf("segfile: segment %d sync: %w", it.id, err)
		}
		if it.close {
			// Nothing unsynced is left behind the handle; a close error
			// changes nothing about what is durable.
			_ = it.f.Close()
			st.syncedSegments.Add(1)
		}
	}
	if b.fileDir {
		if err := st.syncDir(); err != nil {
			return fmt.Errorf("segfile: pre-free directory sync: %w", err)
		}
	}
	b.linked = true
	for _, it := range b.victims {
		if err := it.f.Truncate(0); err != nil {
			return fmt.Errorf("segfile: free segment %d truncate: %w", it.id, err)
		}
		if err := st.timedSync(it.f); err != nil {
			return fmt.Errorf("segfile: free segment %d sync: %w", it.id, err)
		}
		_ = it.f.Close()
		b.freed++
	}
	if b.victimDir {
		if err := st.syncDir(); err != nil {
			return fmt.Errorf("segfile: free directory sync: %w", err)
		}
	}
	if b.ckpt != nil {
		if err := st.writeCheckpoint(b.ckpt); err != nil {
			return fmt.Errorf("segfile: checkpoint: %w", err)
		}
	}
	return nil
}

// end is step 4 for every batch whose syscalls finished, with the
// caller's lock held: synced names are linked, completed victims join
// the pool, and their ids are returned with the first error.
func (st *Store) end() (freed []int, err error) {
	st.doneMu.Lock()
	done := st.done
	st.done = nil
	st.doneMu.Unlock()
	for _, b := range done {
		if b.err != nil && err == nil {
			err = b.err
		}
		if b.linked {
			for _, it := range b.files {
				it.fs.linked = true
			}
		}
		for _, it := range b.victims[:b.freed] {
			delete(st.retiring, it.id)
			st.pool[it.id] = true
			freed = append(freed, it.id)
		}
	}
	return freed, err
}
