// Package loadgen is the one closed-loop load generator: cmd/adaptload
// (wire protocol), cmd/nbdload (NBD) and the harness's live experiments
// all run it. Each worker draws its ops from a seeded stream, so the
// same seed gives the same ops, and issues them one at a time on its
// connection: a closed loop, in which a slow server receives less load.
package loadgen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"adapt/internal/fault"
	"adapt/internal/nbd/nbdtest"
	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/workload"
)

// Conn is one connection's byte-addressed view of a volume. A Conn
// driven by several workers must be safe for concurrent use.
type Conn interface {
	Write(off int64, p []byte) error
	Read(off int64, n int) ([]byte, error)
	Flush() error
}

// Wire is a Conn over a server.Client. It refuses, with
// server.ErrBadRequest, an offset or length that is not whole blocks.
type Wire struct {
	C          *server.Client
	BlockBytes int
}

func (w Wire) Write(off int64, p []byte) error {
	if err := w.aligned(off, len(p)); err != nil {
		return err
	}
	return w.C.Write(off/int64(w.BlockBytes), p)
}

func (w Wire) Read(off int64, n int) ([]byte, error) {
	if err := w.aligned(off, n); err != nil {
		return nil, err
	}
	return w.C.Read(off/int64(w.BlockBytes), n/w.BlockBytes)
}

func (w Wire) Flush() error { return w.C.Flush() }

func (w Wire) aligned(off int64, n int) error {
	if bb := int64(w.BlockBytes); off%bb != 0 || int64(n)%bb != 0 {
		return fmt.Errorf("%w: [%d,+%d) is not whole %d-byte blocks", server.ErrBadRequest, off, n, bb)
	}
	return nil
}

// NBD is a Conn over an nbdtest.Client, which is not safe for
// concurrent use: give each NBD connection one worker.
type NBD struct{ *nbdtest.Client }

func (c NBD) Write(off int64, p []byte) error { return c.Client.Write(uint64(off), p, 0) }

func (c NBD) Read(off int64, n int) ([]byte, error) { return c.Client.Read(uint64(off), uint32(n)) }

// Kind is an op's class.
type Kind uint8

const (
	Read Kind = iota
	Write
	Flush
)

func (k Kind) String() string { return [...]string{"read", "write", "flush"}[k] }

// Op is one op of a stream: a FLUSH, or a read or write of Len bytes at
// Off, issued after an idle Think.
type Op struct {
	Kind  Kind
	Off   int64
	Len   int
	Think time.Duration
}

// Config is one run.
type Config struct {
	// Conns are the dialled connections, each driven by Workers workers.
	Conns   []Conn
	Workers int
	// Size is the bytes each connection addresses. Offsets fall on
	// Align-byte slots, zipfian with skew Theta (scrambled; 0 is
	// uniform); a fraction Unaligned of ops lands 1 to Align-1 bytes past
	// its slot.
	Size, Align      int64
	Theta, Unaligned float64
	// Every read and write is OpBytes long; a fraction WriteFrac of them
	// write. FlushEvery > 0 makes every FlushEvery-th op a FLUSH, and
	// Think > 0 is the mean of an exponential pause before each op.
	OpBytes    int
	WriteFrac  float64
	FlushEvery int
	Think      time.Duration
	// Seed seeds worker w of connection c with Seed + 1000c + w.
	Seed uint64
	// A worker stops Duration after the start barrier or after Ops ops,
	// whichever comes first; 0 disables either.
	Duration time.Duration
	Ops      int
	// Verify splits Size into one disjoint region per worker of any
	// connection, so connections may share a volume. A worker zero-fills
	// its region before the barrier, shadows its acked writes, and after
	// its stop flushes and reads the region back against the shadow.
	Verify bool
	// Clock stamps the records; nil is wall time since the barrier.
	Clock func() sim.Time
}

// Record is one acked op, backpressure retries included.
type Record struct {
	Kind       Kind
	Start, End sim.Time
}

// Worker is what one worker did: its acked ops; its backpressure
// refusals, each retried after a fault.Backoff delay; its acked writes
// off the Align grid; and the error that stopped it early (an op, the
// zero-fill or the verify), if any.
type Worker struct {
	Records         []Record
	Retries, Ragged int64
	Err             error
}

// Result is a run: Workers[c*Workers+w] is connection c's worker w, and
// Elapsed runs from the barrier to the last worker's stop.
type Result struct {
	Elapsed time.Duration
	Workers []Worker
}

// run is a validated Config and what it implies.
type run struct {
	Config
	region, slots int64 // bytes and offset slots per worker
	clock         func() sim.Time
	begin         time.Time
	start         chan struct{}
	ready         sync.WaitGroup
}

func newRun(cfg Config) (*run, error) {
	if len(cfg.Conns) == 0 || cfg.Workers < 1 || cfg.Duration <= 0 && cfg.Ops <= 0 {
		return nil, errors.New("loadgen: a run needs connections, workers, and a Duration or Ops stop")
	}
	r := &run{Config: cfg, region: cfg.Size, clock: cfg.Clock, start: make(chan struct{})}
	if cfg.Verify {
		r.region = cfg.Size / int64(len(cfg.Conns)*cfg.Workers) / cfg.Align * cfg.Align
	}
	reach := r.region - int64(cfg.OpBytes)
	if cfg.Unaligned > 0 {
		reach -= cfg.Align
	}
	if reach < 0 || cfg.Unaligned > 0 && cfg.Align < 2 {
		return nil, fmt.Errorf("loadgen: no room for %d-byte ops in %d bytes on a %d-byte grid", cfg.OpBytes, r.region, cfg.Align)
	}
	r.slots = reach/cfg.Align + 1
	if r.clock == nil {
		r.clock = func() sim.Time { return sim.Time(time.Since(r.begin)) }
	}
	return r, nil
}

// Run has every worker build its stream (under Verify, zero-fill its
// region), then starts the clock at one barrier and runs the workers to
// their stops. An invalid Config is Run's error; a failure stops only
// its worker.
func Run(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: make([]Worker, len(cfg.Conns)*cfg.Workers)}
	stops := make([]time.Duration, len(res.Workers))
	var wg sync.WaitGroup
	r.ready.Add(len(res.Workers))
	for g := range res.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stops[g] = r.work(cfg.Conns[g/cfg.Workers], g, &res.Workers[g])
		}()
	}
	r.ready.Wait()
	r.begin = time.Now()
	close(r.start)
	wg.Wait()
	res.Elapsed = slices.Max(stops)
	return res, nil
}

// work runs worker g on c and returns when, after the barrier, its op
// loop stopped.
func (r *run) work(c Conn, g int, out *Worker) time.Duration {
	s := r.stream(g)
	var shadow []byte
	if r.Verify {
		shadow = make([]byte, r.region)
		out.Err = r.sweep(c, s.lo, shadow, Write, out)
	}
	r.ready.Done()
	if out.Err != nil {
		return 0
	}
	<-r.start
	deadline := r.begin.Add(r.Duration)
	for n := 0; (r.Ops <= 0 || n < r.Ops) && (r.Duration <= 0 || time.Now().Before(deadline)); n++ {
		op := s.next()
		time.Sleep(op.Think)
		t0 := r.clock()
		if _, out.Err = do(c, op, s.payload, out); out.Err != nil {
			break
		}
		out.Records = append(out.Records, Record{Kind: op.Kind, Start: t0, End: r.clock()})
		if op.Kind == Write {
			if shadow != nil {
				copy(shadow[op.Off-s.lo:], s.payload)
			}
			if op.Off%r.Align != 0 || int64(op.Len)%r.Align != 0 {
				out.Ragged++
			}
		}
	}
	stop := time.Since(r.begin)
	if shadow != nil && out.Err == nil {
		if _, out.Err = do(c, Op{Kind: Flush}, nil, out); out.Err == nil {
			out.Err = r.sweep(c, s.lo, shadow, Read, out)
		}
	}
	return stop
}

// do issues op, writing p, and retries it while the server refuses it
// with backpressure. A read returns its bytes.
func do(c Conn, op Op, p []byte, out *Worker) (got []byte, err error) {
	var bo fault.Backoff
	for attempt := 0; ; attempt++ {
		switch op.Kind {
		case Write:
			err = c.Write(op.Off, p)
		case Read:
			got, err = c.Read(op.Off, op.Len)
		default:
			err = c.Flush()
		}
		if !errors.Is(err, server.ErrBackpressure) {
			return got, err
		}
		out.Retries++
		time.Sleep(bo.Delay(attempt))
	}
}

// sweep writes shadow over [lo, lo+len(shadow)), or reads that range
// back and compares it with shadow, in ops of about 1 MiB.
func (r *run) sweep(c Conn, lo int64, shadow []byte, kind Kind, out *Worker) error {
	step := max(1<<20/r.Align, 1) * r.Align
	for off := int64(0); off < int64(len(shadow)); off += step {
		want := shadow[off:min(off+step, int64(len(shadow)))]
		op := Op{Kind: kind, Off: lo + off, Len: len(want)}
		got, err := do(c, op, want, out)
		if err != nil {
			return fmt.Errorf("verify sweep: %w", err)
		}
		if kind == Read && !bytes.Equal(got, want) {
			return fmt.Errorf("VERIFY FAILED: readback diverged in [%d,%d)", op.Off, op.Off+int64(op.Len))
		}
	}
	return nil
}

// stream is one worker's op stream over its region, which starts at
// lo; payload holds the bytes of the latest write drawn.
type stream struct {
	*run
	rng     *sim.RNG
	zipf    *workload.Zipf
	lo      int64
	n       int
	payload []byte
}

func (r *run) stream(g int) *stream {
	s := &stream{run: r, rng: sim.NewRNG(r.Seed + uint64(1000*(g/r.Workers)+g%r.Workers)), payload: make([]byte, r.OpBytes)}
	if r.Verify {
		s.lo = int64(g) * r.region
	}
	for i := range s.payload {
		s.payload[i] = byte(s.rng.Uint64())
	}
	s.zipf = workload.NewZipf(s.rng, r.slots, r.Theta, true)
	return s
}

// next draws the next op. A write stamps its index into the payload
// every 512 bytes, so no two writes carry the same bytes.
func (s *stream) next() Op {
	n := s.n
	s.n++
	var op Op
	if s.Think > 0 {
		op.Think = time.Duration(s.rng.ExpFloat64() * float64(s.Think))
	}
	if s.FlushEvery > 0 && n > 0 && n%s.FlushEvery == 0 {
		op.Kind = Flush
		return op
	}
	op.Off, op.Len = s.lo+s.zipf.Next()*s.Align, s.OpBytes
	if s.Unaligned > 0 && s.rng.Float64() < s.Unaligned {
		op.Off += 1 + s.rng.Int63n(s.Align-1)
	}
	if s.rng.Float64() < s.WriteFrac {
		op.Kind = Write
		var seq [8]byte
		binary.LittleEndian.PutUint64(seq[:], uint64(n))
		for i := 0; i < len(s.payload); i += 512 {
			copy(s.payload[i:], seq[:])
		}
	}
	return op
}

// Summary totals a set of workers: their records' latencies (End-Start:
// nanoseconds on the default clock), sorted, all together and per Kind;
// their retries and ragged writes; and the first error, as "worker i:
// ..." with i the worker's index in the set.
type Summary struct {
	All             []float64
	ByKind          [Flush + 1][]float64
	Retries, Ragged int64
	Err             error
}

// Summarize totals ws.
func Summarize(ws []Worker) Summary {
	var s Summary
	for i, w := range ws {
		s.Retries += w.Retries
		s.Ragged += w.Ragged
		if s.Err == nil && w.Err != nil {
			s.Err = fmt.Errorf("worker %d: %w", i, w.Err)
		}
		for _, rec := range w.Records {
			lat := float64(rec.End - rec.Start)
			s.All = append(s.All, lat)
			s.ByKind[rec.Kind] = append(s.ByKind[rec.Kind], lat)
		}
	}
	slices.Sort(s.All)
	for _, l := range s.ByKind {
		slices.Sort(l)
	}
	return s
}

// Tail renders the p50, p99 and p999 of sorted nanosecond latencies in
// whole microseconds, "-" when there are none.
func Tail(sorted []float64) string {
	pct := func(p float64) string {
		if len(sorted) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", stats.SortedPercentile(sorted, p)/1e3)
	}
	return fmt.Sprintf("p50 %sµs  p99 %sµs  p999 %sµs", pct(50), pct(99), pct(99.9))
}
