package server

import (
	"sync"
	"sync/atomic"

	"adapt/internal/prototype"
	"adapt/internal/telemetry"
)

// commitReq is one WRITE waiting in a shard's group commit: a node of
// the committer's lock-free writer list. The done callback fires
// exactly once, after the group commit that includes the write.
type commitReq struct {
	next    *commitReq
	vol     *volume
	lba     int64 // volume-relative
	blocks  int
	payload []byte
	sp      *telemetry.Span // trace span, nil when tracing is off
	done    func(err error)
}

// shardCommitter coalesces writes bound for one engine shard into group
// commits with a lock-free leader/follower protocol: writers CAS their
// request onto the writer list and return; the writer whose push found
// the list empty becomes the leader. The leader takes the shard's
// commit slot, claims the whole list with one atomic swap and commits
// it under a single engine lock acquisition. Followers never touch the
// engine lock — they park in their connection's response path until the
// leader's done callback acks them.
//
// There is no gather: a group is whatever joined the list while the
// previous group held the slot, so batch size follows load. The leader
// spawned by the first write after a claim waits on the slot; the
// writes behind it find the list non-empty and spawn no one, so at most
// one leader waits and it claims them all when the slot frees. The slot
// is released as soon as the engine call returns, so group k+1 enters
// the engine while group k's volume fsync runs. A partial chunk waits in
// the store's open-chunk buffer, where the SLA window bounds it — the
// paper's one aggregation deadline. After acking its group, the leader
// commits the shard's segment log (Ingest.CommitLog): the seals and
// frees the group's GC recorded sync there, outside the engine lock
// and behind no ack.
type shardCommitter struct {
	srv   *Server
	shard int
	// lead is c.leadTurn, bound once in New so spawning a leader
	// allocates no closure.
	lead func()

	// head is the LIFO writer list; enq/committed count requests for the
	// FLUSH barrier.
	head      atomic.Pointer[commitReq]
	enq       atomic.Int64
	committed atomic.Int64

	// slot is the commit slot, held from the claim until the engine call
	// returns. ops is the group's engine batch, reused under the slot.
	slot sync.Mutex
	ops  []prototype.BatchWrite

	// A FLUSH parks on parked (L is parkMu) until committed reaches its
	// target; flushers counts the parked, so a commit with none skips
	// the broadcast.
	parkMu   sync.Mutex
	parked   sync.Cond
	flushers atomic.Int32
}

// enqueue pushes a write onto the writer list and spawns the leader if
// the list was empty. Lock-free: the only synchronization is the CAS.
func (c *shardCommitter) enqueue(r *commitReq) {
	c.enq.Add(1)
	for {
		old := c.head.Load()
		r.next = old
		if c.head.CompareAndSwap(old, r) {
			if old == nil {
				c.srv.batWG.Add(1)
				go c.lead()
			}
			return
		}
	}
}

// leadTurn runs one leader turn: take the slot, claim, commit, then
// commit the shard's segment log behind the acks.
func (c *shardCommitter) leadTurn() {
	defer c.srv.batWG.Done()
	c.slot.Lock()
	c.commitList(c.head.Swap(nil))
	c.srv.eng.CommitLog(c.shard)
}

// commitList applies one claimed writer list as a single group commit,
// called with the slot held: payload bytes land in each volume's store,
// every write hits the engine back-to-back under one lock
// acquisition and timestamp, the slot frees, then every follower is
// acked.
func (c *shardCommitter) commitList(head *commitReq) {
	// The CAS list is LIFO; reverse it in place to arrival order so the
	// commit replays writes the way the wire delivered them.
	var first *commitReq
	for r := head; r != nil; {
		next := r.next
		r.next, first = first, r
		r = next
	}
	ops := c.ops[:0]
	blocks := 0
	var werr error
	for r := first; r != nil; r = r.next {
		if e := r.vol.writeData(r.lba, r.payload); e != nil && werr == nil {
			werr = e
		}
		ops = append(ops, prototype.BatchWrite{LBA: r.vol.base + r.lba, Blocks: r.blocks})
		blocks += r.blocks
	}
	c.ops = ops
	n := len(ops)
	// The wait for the slot ends here; the whole group commit shares one
	// engine timing, stamped onto every member's span (nil spans ignore
	// it).
	claimed := c.srv.eng.Now()
	for r := first; r != nil; r = r.next {
		r.sp.MarkAt(telemetry.StageBatch, claimed)
	}
	t, err := c.srv.eng.WriteBatchTimed(ops)
	c.slot.Unlock()
	// One group commit can carry several volumes' writes; each volume's
	// batch counter advances once per commit it joined, deduped by
	// stamping the commit sequence.
	seq := c.srv.commitSeq.Add(1)
	for r := first; r != nil; r = r.next {
		markEngine(r.sp, t)
		if r.vol.batchMark.Swap(seq) != seq {
			r.vol.batches.Add(1)
		}
		r.vol.batchedWrites.Add(1)
	}
	c.srv.met.batches.Inc()
	c.srv.met.batchedWrites.Add(int64(n))
	c.srv.met.batchFill.Observe(int64(blocks))
	if err == nil {
		err = werr
	}
	if err == nil {
		// Durability point of the group commit: each member volume's
		// backing file syncs once (syncData skips a covered fsync)
		// before any follower is acked.
		for r := first; r != nil; r = r.next {
			if e := r.vol.syncData(); e != nil {
				err = e
				break
			}
		}
	}
	for r := first; r != nil; {
		next := r.next
		r.done(err)
		r = next
	}
	c.committed.Add(int64(n))
	if c.flushers.Load() > 0 {
		c.parkMu.Lock()
		c.parked.Broadcast()
		c.parkMu.Unlock()
	}
}

// flush is the FLUSH barrier: every write enqueued before the call is
// committed when it returns. It parks until a group commit moves the
// committed counter past its target; progress is guaranteed because a
// non-empty list always has a leader and a counted-but-unpushed
// write's own goroutine completes the push before parking. No wakeup
// is lost: a commit adds to committed before it reads flushers, and a
// flush counts itself in flushers before it reads committed.
func (c *shardCommitter) flush() {
	target := c.enq.Load()
	if c.committed.Load() >= target {
		return
	}
	c.parkMu.Lock()
	c.flushers.Add(1)
	for c.committed.Load() < target {
		c.parked.Wait()
	}
	c.flushers.Add(-1)
	c.parkMu.Unlock()
}
