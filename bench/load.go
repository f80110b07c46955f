package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/server"
)

// Load shape, the same for every workload: a closed loop of one
// connection per volume with queueDepth callers each. Callers of a block
// device wait for their reply, so a closed loop at a stated depth is the
// honest shape.
const (
	volumes       = 2
	queueDepth    = 8
	maxBackoffs   = 8
	maxFailures   = 100 // a phase gives up after this many failed ops
	prefillBlocks = 16  // prefill writes whole 64 KiB chunks
)

// target is one volume's connection, in byte offsets.
type target interface {
	Write(off int64, p []byte) error
	Read(off int64, n int) ([]byte, error)
	Flush() error
	Close() error
}

// wireTarget adapts the repo's pipelined server.Client.
type wireTarget struct{ c *server.Client }

func (t wireTarget) Write(off int64, p []byte) error { return t.c.Write(off/blockBytes, p) }
func (t wireTarget) Read(off int64, n int) ([]byte, error) {
	return t.c.Read(off/blockBytes, n/blockBytes)
}
func (t wireTarget) Flush() error { return t.c.Flush() }
func (t wireTarget) Close() error { return t.c.Close() }

// nbdTarget adapts the bench's pipelined NBD client.
type nbdTarget struct{ c *nbdClient }

func (t nbdTarget) Write(off int64, p []byte) error { return t.c.Write(uint64(off), p) }
func (t nbdTarget) Read(off int64, n int) ([]byte, error) {
	return t.c.Read(uint64(off), uint32(n))
}
func (t nbdTarget) Flush() error { return t.c.Flush() }
func (t nbdTarget) Close() error { return t.c.Close() }

// volState is one volume under load: its connection, its flat shadow
// copy, and the block ranges of the ops currently in flight. No two
// in-flight ops on a volume overlap, so the shadow is exact: a read can
// be compared byte for byte the moment it returns.
type volState struct {
	tgt    target
	shadow []byte

	mu       sync.Mutex
	inflight [][2]int64
}

// overlaps reports whether [first, past) intersects an in-flight op.
// Caller holds v.mu.
func (v *volState) overlaps(first, past int64) bool {
	for _, r := range v.inflight {
		if first < r[1] && r[0] < past {
			return true
		}
	}
	return false
}

func (v *volState) release(first, past int64) {
	v.mu.Lock()
	for i, r := range v.inflight {
		if r[0] == first && r[1] == past {
			last := len(v.inflight) - 1
			v.inflight[i] = v.inflight[last]
			v.inflight = v.inflight[:last]
			break
		}
	}
	v.mu.Unlock()
}

// classLat holds one op class's completions: when each finished,
// relative to the phase start, and how long it took, both in ns.
type classLat struct{ end, lat []int64 }

func (c *classLat) add(end, lat int64) {
	c.end = append(c.end, end)
	c.lat = append(c.lat, lat)
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	elapsed    time.Duration
	attempted  int64
	failed     int64
	firstErr   error
	writeBytes int64 // payload bytes of acked writes
	reads      classLat
	writes     classLat
	ends       []int64 // completion times of every acked op, flushes included
}

// loader drives the volumes through load phases.
type loader struct {
	vols []*volState
	pool *payloadPool
	seq  atomic.Uint64
	// onMark, when set, is called once, from its own goroutine, when the
	// phase's mark-th op has been acked; run waits for it to return.
	mark   int64
	onMark func()
}

// source hands a worker its next op; ok=false ends the phase for that
// worker. It runs under the volume's lock and must register the op's
// block range as in flight.
type source func(v *volState) (o op, ok bool)

// run drives every volume with queueDepth closed-loop workers until the
// sources run dry.
func (l *loader) run(srcs []source) *phaseResult {
	outs := make([]phaseResult, len(l.vols)*queueDepth)
	var failures, acks atomic.Int64
	var wg, markWG sync.WaitGroup
	start := time.Now()
	for vi, v := range l.vols {
		for w := 0; w < queueDepth; w++ {
			wg.Add(1)
			go func(vi int, v *volState, out *phaseResult) {
				defer wg.Done()
				var buf []byte
				for failures.Load() < maxFailures {
					v.mu.Lock()
					o, ok := srcs[vi](v)
					v.mu.Unlock()
					if !ok {
						return
					}
					first, past := o.blocks()
					out.attempted++
					sent := int64(time.Since(start))
					var err error
					switch o.kind {
					case opWrite:
						buf = l.pool.fill(buf, o.n, l.seq.Add(1))
						err = retry(func() error { return v.tgt.Write(o.off, buf) })
						if err == nil {
							copy(v.shadow[o.off:], buf)
							out.writeBytes += int64(o.n)
						}
					case opRead:
						var got []byte
						err = retry(func() error {
							var e error
							got, e = v.tgt.Read(o.off, o.n)
							return e
						})
						if err == nil && !bytes.Equal(got, v.shadow[o.off:o.off+int64(o.n)]) {
							err = fmt.Errorf("verify: read of vol %d [%d,+%d) differs from the shadow", vi, o.off, o.n)
						}
					case opFlush:
						err = retry(v.tgt.Flush)
					}
					acked := int64(time.Since(start))
					if o.kind != opFlush {
						v.release(first, past)
					}
					if err != nil {
						out.failed++
						failures.Add(1)
						if out.firstErr == nil {
							out.firstErr = err
						}
						continue
					}
					out.ends = append(out.ends, acked)
					if l.onMark != nil && acks.Add(1) == l.mark {
						markWG.Add(1)
						go func() {
							defer markWG.Done()
							l.onMark()
						}()
					}
					switch o.kind {
					case opWrite:
						out.writes.add(acked, acked-sent)
					case opRead:
						out.reads.add(acked, acked-sent)
					}
				}
			}(vi, v, &outs[vi*queueDepth+w])
		}
	}
	wg.Wait()
	markWG.Wait()
	total := &phaseResult{elapsed: time.Since(start)}
	for i := range outs {
		o := &outs[i]
		total.attempted += o.attempted
		total.failed += o.failed
		total.writeBytes += o.writeBytes
		if total.firstErr == nil {
			total.firstErr = o.firstErr
		}
		total.ends = append(total.ends, o.ends...)
		total.reads.end = append(total.reads.end, o.reads.end...)
		total.reads.lat = append(total.reads.lat, o.reads.lat...)
		total.writes.end = append(total.writes.end, o.writes.end...)
		total.writes.lat = append(total.writes.lat, o.writes.lat...)
	}
	return total
}

// retry runs fn, backing off and retrying while the server refuses it
// with backpressure; a refusal that outlives maxBackoffs is a failure.
func retry(fn func() error) error {
	delay := 50 * time.Microsecond
	for i := 0; ; i++ {
		err := fn()
		if err == nil || !errors.Is(err, server.ErrBackpressure) || i == maxBackoffs {
			return err
		}
		time.Sleep(delay)
		delay *= 2
	}
}

// sweepSource covers the volume once, in order, in chunk-sized ops:
// writes to prefill it, reads to check it against the shadow.
func sweepSource(kind opKind, volBlocks int64) source {
	next := int64(0)
	return func(v *volState) (op, bool) {
		if next >= volBlocks {
			return op{}, false
		}
		o := op{kind: kind, off: next * blockBytes, n: int(min(prefillBlocks, volBlocks-next)) * blockBytes}
		next += prefillBlocks
		first, past := o.blocks()
		v.inflight = append(v.inflight, [2]int64{first, past})
		return o, true
	}
}

// workloadSource draws from g until stop says so, re-drawing any op
// that overlaps one in flight on the same volume.
func workloadSource(g *generator, stop func() bool) source {
	return func(v *volState) (op, bool) {
		if stop() {
			return op{}, false
		}
		for {
			o := g.next()
			if o.kind == opFlush {
				return o, true
			}
			first, past := o.blocks()
			if v.overlaps(first, past) {
				continue
			}
			v.inflight = append(v.inflight, [2]int64{first, past})
			return o, true
		}
	}
}

// countStop ends a phase after n ops across all volumes.
func countStop(n int) func() bool {
	var left atomic.Int64
	left.Store(int64(n))
	return func() bool { return left.Add(-1) < 0 }
}

// deadlineStop ends a phase d after it was built.
func deadlineStop(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}
