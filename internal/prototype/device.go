package prototype

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/telemetry"
)

// chunkJob is one unit of device work: a chunk write (log flush, parity,
// or the rebuild's write onto the spare) or a chunk-sized read.
type chunkJob struct {
	read bool
	// spare marks the rebuild's write onto the replacement of a failed
	// column — the one write the fault hook must not drop there.
	spare bool
}

// granule is the smallest service debt a column's worker stalls to
// work off; below it the worker runs on, so a short burst costs no
// wait. Run's pinned tables are computed with it.
const granule = 200 * time.Microsecond

// column models one SSD as arithmetic, with nothing running: a queue of
// QueueDepth slots drained by a worker that accrues each job's service
// and stalls off debt above a granule. Times are offsets from start.
type column struct {
	mu sync.Mutex
	// virtual is the service of every job sent. Debt is virtual minus the
	// clock, so idle time is banked as credit a later burst spends first.
	virtual time.Duration
	free    time.Duration // when the worker is next free to dequeue
	// deq rings the dequeue times of the last QueueDepth jobs; next
	// indexes the oldest — the job QueueDepth ahead of the next one.
	deq  []time.Duration
	next int

	// Telemetry instruments; nil (no-op) when telemetry is disabled.
	busyNS *telemetry.Counter
	chunks *telemetry.Counter
}

// schedule runs the recurrence for one job sent at now and returns when
// it enters the queue: once the job QueueDepth ahead of it has been
// dequeued.
func (c *column) schedule(now, service time.Duration) (enter time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	enter = max(now, c.deq[c.next])
	deq := max(enter, c.free)
	c.deq[c.next] = deq
	c.next = (c.next + 1) % len(c.deq)
	c.virtual += service
	c.free = deq
	if c.virtual-deq > granule {
		c.free = c.virtual
	}
	c.busyNS.Add(int64(service))
	c.chunks.Inc()
	return enter
}

// replace swaps a spare in for the column at now: a fresh device that
// has banked no idle credit, so the rebuild writes it at its bandwidth.
func (c *column) replace(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.virtual = max(c.virtual, now)
}

// queued is the queue's occupancy at now: the ring's jobs not yet
// dequeued (dequeue times never decrease); all of them while a sender waits.
func (c *column) queued(now time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.deq {
		if d > now {
			n++
		}
	}
	return n
}

// deviceArray is Run's model of the physical SSD array, one column per
// SSD, on Run's virtual clock (ns since start): a wait advances that
// clock, and nothing sleeps. A served engine has none.
type deviceArray struct {
	cols         []*column
	readService  time.Duration
	writeService time.Duration
	clock        *atomic.Int64

	// fault is Run's injector, nil in a healthy run: it decides which
	// chunks a failed column loses, counts what each column holds, and
	// fans reads of the failed column out to the survivors. Set before
	// the first send.
	fault *faultRun
}

// newDeviceArray builds ncols columns on clock from cfg's device
// parameters, defaulted; a chunk read takes half the write service time.
func newDeviceArray(ncols int, cfg EngineConfig, clock *atomic.Int64) *deviceArray {
	depth, service := cfg.QueueDepth, cfg.ServiceTime
	if depth < 1 {
		depth = 8
	}
	if service <= 0 {
		service = 50 * time.Microsecond
	}
	da := &deviceArray{
		cols:         make([]*column, ncols),
		readService:  service / 2,
		writeService: service,
		clock:        clock,
	}
	for i := range da.cols {
		da.cols[i] = &column{deq: make([]time.Duration, depth)}
	}
	return da
}

// elapsed is the virtual clock.
func (da *deviceArray) elapsed() time.Duration { return time.Duration(da.clock.Load()) }

// send is the one way onto a device queue: it runs column col's
// recurrence for job and advances the clock until the job enters (a
// saturated column applies backpressure to whoever holds the engine
// lock, like a saturated array), adding the wait to *blockedNS. Only the
// fault hook drops a chunk; a full queue delays it.
func (da *deviceArray) send(col int, job chunkJob, blockedNS *int64) {
	fr := da.fault
	if fr != nil && !fr.admit(col, job) {
		return
	}
	service := da.writeService
	if job.read {
		service = da.readService
	}
	now := da.elapsed()
	if enter := da.cols[col].schedule(now, service); enter > now {
		da.clock.Store(int64(enter))
		*blockedNS += int64(enter - now)
	}
}

// read issues one chunk-sized read aimed at column col. While the
// fault hook holds col failed the read is reconstructed instead: one
// read on every surviving column (the XOR fan-out).
func (da *deviceArray) read(col int, blockedNS *int64) {
	if fr := da.fault; fr.degradedTarget(col) {
		fr.degReads.Add(1)
		for c := range da.cols {
			if c != col {
				da.send(c, chunkJob{read: true}, blockedNS)
			}
		}
		return
	}
	da.send(col, chunkJob{read: true}, blockedNS)
}

// sink is a store's chunk sink on this array: each flushed chunk goes to
// the column the store's RAID-5 array placed it on, then a closed
// stripe's parity to its parity column, adding any wait to *blockedNS.
// Nil without an array: a served store dispatches nothing.
func (da *deviceArray) sink(blockedNS *int64) lss.ChunkSink {
	if da == nil {
		return nil
	}
	return func(w lss.ChunkWrite) {
		da.send(w.Column, chunkJob{}, blockedNS)
		if w.ParityColumn >= 0 {
			da.send(w.ParityColumn, chunkJob{}, blockedNS)
		}
	}
}

// registerTelemetry exposes per-device counters and queue gauges on ts
// (nil: none). Call at most once per array, before the first send.
func (da *deviceArray) registerTelemetry(ts *telemetry.Set) {
	if ts == nil {
		return
	}
	for i, c := range da.cols {
		c.busyNS = ts.Registry.NewCounter(
			fmt.Sprintf("%s{device=\"%d\"}", telemetry.MetricDeviceBusyPrefix, i),
			"Modelled device service time consumed")
		c.chunks = ts.Registry.NewCounter(
			fmt.Sprintf("%s{device=\"%d\"}", telemetry.MetricDeviceChunksPrefix, i),
			"Chunk operations serviced")
		ts.Registry.NewFuncGauge(
			fmt.Sprintf("%s{device=\"%d\"}", telemetry.MetricDeviceQueuePrefix, i),
			"Queued chunk operations", false,
			func() int64 { return int64(c.queued(da.elapsed())) })
	}
}

// queueFill reports the fill fraction of the most backlogged column:
// the pacer's queue signal in Run.
func (da *deviceArray) queueFill() float64 {
	worst := 0
	for _, c := range da.cols {
		worst = max(worst, c.queued(da.elapsed()))
	}
	return float64(worst) / float64(len(da.cols[0].deq))
}

// drain advances the clock until the last column's worker is free, so
// the run's elapsed time pays for every chunk sent; no send may follow
// it.
func (da *deviceArray) drain() {
	var last time.Duration
	for _, c := range da.cols {
		c.mu.Lock()
		last = max(last, c.free)
		c.mu.Unlock()
	}
	da.clock.Store(int64(max(last, da.elapsed())))
}
