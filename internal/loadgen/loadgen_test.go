package loadgen

import (
	"errors"
	"fmt"
	"hash/crc32"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/server"
)

// memConn is an in-memory volume shared by every worker driving it.
// Every refuse-th call is refused with backpressure, a read covering
// byte flipAt (when >= 0) returns that byte inverted, and onOp sees each
// call first.
type memConn struct {
	mu     sync.Mutex
	data   []byte
	log    []Op
	calls  int
	refuse int
	flipAt int64
	onOp   func(Op)
}

func newMemConn(size int) *memConn {
	c := &memConn{data: make([]byte, size), flipAt: -1}
	for i := range c.data {
		c.data[i] = 0xAA // not zero: the zero-fill must happen
	}
	return c
}

// call logs op and reports whether this call is refused.
func (c *memConn) call(op Op) bool {
	if c.onOp != nil {
		c.onOp(op)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.refuse > 0 && c.calls%c.refuse == 0 {
		return true
	}
	c.log = append(c.log, op)
	return false
}

func (c *memConn) Write(off int64, p []byte) error {
	if c.call(Op{Kind: Write, Off: off, Len: len(p)}) {
		return server.ErrBackpressure
	}
	c.mu.Lock()
	copy(c.data[off:], p)
	c.mu.Unlock()
	return nil
}

func (c *memConn) Read(off int64, n int) ([]byte, error) {
	if c.call(Op{Kind: Read, Off: off, Len: n}) {
		return nil, server.ErrBackpressure
	}
	c.mu.Lock()
	got := append([]byte(nil), c.data[off:off+int64(n)]...)
	c.mu.Unlock()
	if c.flipAt >= off && c.flipAt < off+int64(n) {
		got[c.flipAt-off] ^= 0xFF
	}
	return got, nil
}

func (c *memConn) Flush() error {
	if c.call(Op{Kind: Flush}) {
		return server.ErrBackpressure
	}
	return nil
}

// mix is a config exercising every kind of draw.
func mix(c Conn) Config {
	return Config{
		Conns: []Conn{c}, Workers: 1,
		Size: 1 << 20, Align: 4096, Theta: 0.9, Unaligned: 0.25,
		OpBytes: 4096, WriteFrac: 0.3, FlushEvery: 8,
		Think: time.Millisecond, Seed: 7, Ops: 300,
	}
}

// draw returns worker g's first n ops and a checksum of every write's
// payload.
func draw(t *testing.T, cfg Config, g, n int) ([]Op, []uint32) {
	t.Helper()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.stream(g)
	ops := make([]Op, n)
	var sums []uint32
	for i := range ops {
		if ops[i] = s.next(); ops[i].Kind == Write {
			sums = append(sums, crc32.ChecksumIEEE(s.payload))
		}
	}
	return ops, sums
}

// TestSameSeedSameOps: a stream is a function of its seed — ops, think
// times and payload bytes — and it is what a run issues.
func TestSameSeedSameOps(t *testing.T) {
	cfg := mix(nil)
	a, aSums := draw(t, cfg, 0, 1000)
	b, bSums := draw(t, cfg, 0, 1000)
	if fmt.Sprint(a, aSums) != fmt.Sprint(b, bSums) {
		t.Fatal("one seed drew two different streams")
	}
	cfg.Seed++
	if c, _ := draw(t, cfg, 0, 1000); fmt.Sprint(c) == fmt.Sprint(a) {
		t.Fatal("two seeds drew the same stream")
	}

	mem := newMemConn(1 << 20)
	cfg = mix(mem)
	cfg.Think = 0
	want, _ := draw(t, cfg, 0, cfg.Ops)
	res, err := Run(cfg)
	if err != nil || res.Workers[0].Err != nil {
		t.Fatalf("run: %v, %v", err, res.Workers[0].Err)
	}
	if fmt.Sprint(mem.log) != fmt.Sprint(want) {
		t.Fatalf("the run issued other ops than its stream drew:\n got %v\nwant %v", mem.log[:8], want[:8])
	}
}

// TestMixFractions: op classes, unaligned offsets and the FLUSH cadence
// come out as configured, and every op stays inside its worker's region.
func TestMixFractions(t *testing.T) {
	const n = 20000
	cfg := mix(nil)
	cfg.Conns, cfg.Workers, cfg.Verify = []Conn{nil, nil}, 2, true
	region := cfg.Size / 4
	for g := 0; g < 4; g++ {
		ops, _ := draw(t, cfg, g, n)
		var flushes, writes, unaligned int
		for i, op := range ops {
			if op.Kind == Flush {
				if i == 0 || i%cfg.FlushEvery != 0 {
					t.Fatalf("worker %d: op %d is a FLUSH", g, i)
				}
				flushes++
				continue
			}
			if lo := int64(g) * region; op.Off < lo || op.Off+int64(op.Len) > lo+region {
				t.Fatalf("worker %d: op %+v leaves its region [%d,%d)", g, op, lo, lo+region)
			}
			if op.Kind == Write {
				writes++
			}
			if op.Off%cfg.Align != 0 {
				unaligned++
			}
		}
		data := n - flushes
		if want := (n - 1) / cfg.FlushEvery; flushes != want {
			t.Errorf("worker %d: %d flushes in %d ops, want %d", g, flushes, n, want)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"write", float64(writes) / float64(data), cfg.WriteFrac},
			{"unaligned", float64(unaligned) / float64(data), cfg.Unaligned},
		} {
			if f.got < f.want-0.02 || f.got > f.want+0.02 {
				t.Errorf("worker %d: %s fraction %.3f, want %.2f±0.02", g, f.name, f.got, f.want)
			}
		}
	}
}

// TestNoOpBeforeBarrier: no op is issued — and the clock does not start
// — until the slowest worker has zero-filled its region. (The dials all
// precede Run: it takes connections already dialled.)
func TestNoOpBeforeBarrier(t *testing.T) {
	const conns, workers = 4, 2
	var filled, early atomic.Int64
	mem := newMemConn(1 << 20)
	cfg := mix(mem)
	cfg.Conns = []Conn{mem, mem, mem, mem}
	cfg.Workers, cfg.Verify, cfg.Think, cfg.Ops = workers, true, 0, 20
	region := int(cfg.Size) / (conns * workers)
	mem.onOp = func(op Op) {
		switch {
		case op.Kind == Write && op.Len == region: // a zero-fill
			if op.Off == 0 {
				time.Sleep(30 * time.Millisecond)
			}
			filled.Add(1)
		case filled.Load() != conns*workers:
			early.Add(1)
		}
	}
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d ops issued before the last zero-fill", n)
	}
	if res.Elapsed >= time.Since(start)-30*time.Millisecond {
		t.Fatalf("elapsed %v counts the zero-fill", res.Elapsed)
	}
	for g, w := range res.Workers {
		if w.Err != nil || len(w.Records) != cfg.Ops {
			t.Fatalf("worker %d: %d ops, %v", g, len(w.Records), w.Err)
		}
	}
}

// TestBackpressureRetried: every refusal is retried and counted, and
// none of them is recorded as an op.
func TestBackpressureRetried(t *testing.T) {
	mem := newMemConn(1 << 20)
	mem.refuse = 3
	cfg := mix(mem)
	cfg.Workers, cfg.Think, cfg.Ops = 2, 0, 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var retries int64
	for g, w := range res.Workers {
		if w.Err != nil || len(w.Records) != cfg.Ops {
			t.Fatalf("worker %d: %d ops recorded, want %d (%v)", g, len(w.Records), cfg.Ops, w.Err)
		}
		retries += w.Retries
	}
	if refused := int64(mem.calls - len(mem.log)); retries == 0 || retries != refused {
		t.Fatalf("%d retries counted for %d refusals", retries, refused)
	}
}

// TestVerifyNamesTheRange: a single byte read back wrong fails exactly
// the worker whose region holds it, with the range that holds it; with
// nothing flipped every region verifies.
func TestVerifyNamesTheRange(t *testing.T) {
	const flip = 700001
	span := regexp.MustCompile(`VERIFY FAILED: readback diverged in \[(\d+),(\d+)\)`)
	for _, flipAt := range []int64{-1, flip} {
		mem := newMemConn(1 << 20)
		mem.flipAt = flipAt
		cfg := mix(mem)
		cfg.Conns, cfg.Verify, cfg.Think, cfg.Ops = []Conn{mem, mem}, true, 0, 200
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for g, w := range res.Workers {
			lo := int64(g) * cfg.Size / 2
			holds := flipAt >= lo && flipAt < lo+cfg.Size/2
			if !holds {
				if w.Err != nil {
					t.Fatalf("flip %d: worker %d over [%d,+%d): %v", flipAt, g, lo, cfg.Size/2, w.Err)
				}
				continue
			}
			m := span.FindStringSubmatch(fmt.Sprint(w.Err))
			if m == nil {
				t.Fatalf("flip %d: worker %d: %v, want a VERIFY FAILED naming the range", flipAt, g, w.Err)
			}
			a, _ := strconv.ParseInt(m[1], 10, 64)
			b, _ := strconv.ParseInt(m[2], 10, 64)
			if flipAt < a || flipAt >= b {
				t.Fatalf("flip %d: verify names [%d,%d)", flipAt, a, b)
			}
		}
	}
}

// TestWireRefusesUnaligned: the wire adapter turns an op off the block
// grid away before it reaches the client.
func TestWireRefusesUnaligned(t *testing.T) {
	w := Wire{BlockBytes: 4096} // a nil client: nothing may reach it
	if err := w.Write(1, make([]byte, 4096)); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("unaligned write: %v", err)
	}
	if _, err := w.Read(0, 100); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("ragged read: %v", err)
	}
}
