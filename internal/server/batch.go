package server

import (
	"runtime"
	"sync/atomic"
	"time"

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

// shardCommitter coalesces writes bound for one engine shard into
// chunk-aligned group commits with a lock-free leader/follower
// protocol: writers CAS their request onto the writer list and return;
// the writer whose push found the list empty becomes the leader,
// gathers until the batch fills a chunk (or the deadline/quiesce
// heuristics fire), claims the whole list with one atomic swap, and
// commits it under a single engine lock acquisition. Followers never
// touch the engine lock — they park in their connection's response
// path until the leader's done callback acks them.
//
// The invariant is that a non-empty list always has exactly one
// leader responsible for it: a pusher that finds the list empty spawns
// the leader, and the leader's claiming swap empties the list, so the
// next pusher spawns the next leader. Two leaders can overlap (one
// committing its claimed list while the next gathers), but they own
// disjoint requests and the shard's engine lock serializes the actual
// commits.
//
// Group sizing mirrors the paper's SLA-driven padding deadline, as the
// channel batcher before it did: a full chunk commits immediately, a
// partial batch commits small when the submission stream quiesces or
// the deadline passes, and the store pads what never fills.
type shardCommitter struct {
	srv       *Server
	shard     int
	timeout   time.Duration
	maxBlocks int

	// head is the LIFO writer list. pendingBlocks tracks blocks pushed
	// but not yet committed, for the leader's fill check; enq/committed
	// count requests for the FLUSH barrier; flushGen kicks a gathering
	// leader so a FLUSH never waits out a long deadline.
	head          atomic.Pointer[commitReq]
	pendingBlocks atomic.Int64
	enq           atomic.Int64
	committed     atomic.Int64
	flushGen      atomic.Int64
}

// enqueue pushes a write onto the writer list and spawns the leader if
// the list was empty. Lock-free: the only synchronization is the CAS.
func (c *shardCommitter) enqueue(r *commitReq) {
	c.enq.Add(1)
	c.pendingBlocks.Add(int64(r.blocks))
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

// quiesceYields bounds the yield-poll window after the submission
// stream goes quiet: once this many consecutive scheduler yields see
// no new write, the group commits early rather than waiting out the
// full deadline. Kernel timers are far too coarse for sub-millisecond
// group-commit deadlines (observed granularity >1 ms), so the leader
// never parks on a timer; in a closed-loop pipeline a quiet list means
// every in-flight write has already joined and waiting buys nothing.
const quiesceYields = 16

// lead runs one leader turn: gather, claim, commit.
func (c *shardCommitter) lead() {
	defer c.srv.batWG.Done()
	c.gather()
	c.commitList(c.head.Swap(nil))
}

// gather waits for the batch to fill a chunk, bounded by the
// group-commit deadline, a quiesced submission stream, a FLUSH kick,
// or server drain — whichever comes first.
func (c *shardCommitter) gather() {
	if c.srv.lc.draining.Load() {
		return
	}
	deadline := time.Now().Add(c.timeout)
	gen := c.flushGen.Load()
	seen := c.enq.Load()
	for idle := 0; idle < quiesceYields; {
		if c.pendingBlocks.Load() >= int64(c.maxBlocks) {
			return
		}
		if c.flushGen.Load() != gen || c.srv.lc.draining.Load() {
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
		runtime.Gosched()
		if cur := c.enq.Load(); cur != seen {
			seen, idle = cur, 0
		} else {
			idle++
		}
	}
}

// commitList applies one claimed writer list as a single group commit:
// payload bytes land in each volume's data plane, every write hits the
// engine back-to-back under one lock acquisition and timestamp, then
// every follower is acked.
func (c *shardCommitter) commitList(head *commitReq) {
	if head == nil {
		return
	}
	n := 0
	for r := head; r != nil; r = r.next {
		n++
	}
	// The CAS list is LIFO; reverse to arrival order so the commit
	// replays writes the way the wire delivered them.
	items := make([]*commitReq, n)
	i := n
	for r := head; r != nil; r = r.next {
		i--
		items[i] = r
	}
	ops := make([]prototype.BatchWrite, n)
	blocks := 0
	var werr error
	for i, r := range items {
		if e := r.vol.writeData(r.lba, r.payload); e != nil && werr == nil {
			werr = e
		}
		ops[i] = prototype.BatchWrite{LBA: r.vol.base + r.lba, Blocks: r.blocks}
		blocks += r.blocks
	}
	// The gather window ends here; the whole group commit shares one
	// engine timing, stamped onto every member's span (nil spans
	// ignore it).
	gatherEnd := c.srv.eng.Now()
	for _, r := range items {
		r.sp.MarkAt(telemetry.StageBatch, gatherEnd)
	}
	t, err := c.srv.eng.WriteBatchTimed(ops)
	for _, r := range items {
		markEngine(r.sp, t)
	}
	// One group commit can carry several volumes' writes; each volume's
	// batch counter advances once per commit it joined, deduped by
	// stamping the commit sequence.
	seq := c.srv.commitSeq.Add(1)
	for _, r := range items {
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
		for _, r := range items {
			if e := r.vol.syncData(); e != nil {
				err = e
				break
			}
		}
	}
	for _, r := range items {
		r.done(err)
	}
	c.pendingBlocks.Add(-int64(blocks))
	c.committed.Add(int64(n))
}

// flush is the FLUSH barrier: every write enqueued before the call is
// committed when it returns. It kicks any gathering leader (so the
// barrier never waits out a group-commit deadline) and then spins on
// the committed counter; progress is guaranteed because a non-empty
// list always has a leader and a counted-but-unpushed write's own
// goroutine completes the push before parking.
func (c *shardCommitter) flush() {
	c.flushGen.Add(1)
	target := c.enq.Load()
	for c.committed.Load() < target {
		runtime.Gosched()
	}
}
