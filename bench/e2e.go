package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"adapt/internal/nbd"
	"adapt/internal/server"
)

// setupReps is how many times a run sets the server up from nothing.
// setup_s is their median, so one slow boot cannot move it; only the
// last set-up is measured against.
const setupReps = 3

// countConn counts the bytes the generator receives, which are exactly
// the bytes the server wrote to its sockets: fs_write_amp subtracts them
// from the server's write-syscall total to leave the file bytes.
type countConn struct {
	net.Conn
	recv *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line a run prints, in the shape the benchmark
// contract fixes.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// note is a line for the human reader, printed above the metrics.
	note string
}

// endpoints is where a server under test listens.
type endpoints struct{ wire, nbd string }

// connect dials one connection per volume on the workload's frontend and
// returns a loader over fresh (or the given) shadows.
func connect(ep endpoints, sp *spec, seed uint64, volBlocks int64, shadows [][]byte, recv *atomic.Int64) (*loader, error) {
	wrap := func(c net.Conn) net.Conn { return countConn{c, recv} }
	l := &loader{pool: newPayloadPool(seed)}
	for v := 0; v < volumes; v++ {
		var tgt target
		if sp.nbd {
			c, err := dialNBD(ep.nbd, nbd.ExportName(v), wrap)
			if err != nil {
				l.close()
				return nil, err
			}
			tgt = nbdTarget{c}
		} else {
			conn, err := net.Dial("tcp", ep.wire)
			if err != nil {
				l.close()
				return nil, err
			}
			tgt = wireTarget{server.NewClient(wrap(conn), uint32(v))}
		}
		vs := &volState{tgt: tgt}
		if shadows != nil {
			vs.shadow = shadows[v]
		} else {
			vs.shadow = make([]byte, volBlocks*blockBytes)
		}
		l.vols = append(l.vols, vs)
	}
	return l, nil
}

func (l *loader) close() {
	for _, v := range l.vols {
		v.tgt.Close()
	}
}

func (l *loader) shadows() [][]byte {
	out := make([][]byte, len(l.vols))
	for i, v := range l.vols {
		out[i] = v.shadow
	}
	return out
}

// sources builds one source per volume from a factory.
func (l *loader) sources(mk func(vol int) source) []source {
	out := make([]source, len(l.vols))
	for i := range out {
		out[i] = mk(i)
	}
	return out
}

// prefillAndWarm is the load half of set-up: write every block of every
// volume once, then run the workload's fixed unmeasured warm-up so GC is
// cycling and caches are warm before anything is timed.
func prefillAndWarm(l *loader, sp *spec, seed uint64, volBlocks int64) ([]*generator, *phaseResult, error) {
	pre := l.run(l.sources(func(int) source { return sweepSource(opWrite, volBlocks) }))
	if pre.failed > 0 {
		return nil, pre, fmt.Errorf("prefill: %d of %d writes failed: %v", pre.failed, pre.attempted, pre.firstErr)
	}
	gens := make([]*generator, len(l.vols))
	for v := range gens {
		gens[v] = newGenerator(sp, seed, v, volBlocks)
	}
	stop := countStop(sp.warmupOps)
	warm := l.run(l.sources(func(v int) source { return workloadSource(gens[v], stop) }))
	warm.attempted += pre.attempted
	if warm.failed > 0 {
		return nil, warm, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return gens, warm, nil
}

// restartAndReadBack boots the real server on a directory whose last
// owner died without closing it, times the boot to its first STAT reply,
// and reads every block back against the shadows. The OS cache survives
// a kill, so this is the weak form of the durability check; the
// syscall-level crash sweeps stay in go test.
func restartAndReadBack(env *environment, sp *spec, seed uint64, dataDir string, shadows [][]byte, recv *atomic.Int64) (*phaseResult, time.Duration, error) {
	t0 := time.Now()
	ch, err := startChild(env.serverBin, dataDir, env.pidFile(), sp.nbd)
	if err != nil {
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	defer ch.kill()
	if _, err := statsOf(ch.wireAddr, recv); err != nil {
		return nil, 0, fmt.Errorf("STAT after restart: %w", err)
	}
	restart := time.Since(t0)
	volBlocks := int64(len(shadows[0]) / blockBytes)
	l, err := connect(endpoints{ch.wireAddr, ch.nbdAddr}, sp, seed, volBlocks, shadows, recv)
	if err != nil {
		return nil, 0, err
	}
	defer l.close()
	back := l.run(l.sources(func(int) source { return sweepSource(opRead, volBlocks) }))
	if back.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure in the restart read-back:", back.firstErr)
	}
	return back, restart, nil
}

// statDelta is the change of every STAT counter over a phase.
type statDelta map[string]int64

func statsOf(addr string, recv *atomic.Int64) (map[string]int64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := server.NewClient(countConn{conn, recv}, 0)
	defer c.Close()
	return c.Stats()
}

func delta(after, before map[string]int64) statDelta {
	d := make(statDelta, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// effWA is the paper's headline over a counter delta: every block the
// array absorbed per user block written.
func (d statDelta) effWA() float64 {
	return float64(d["store_user_blocks"]+d["store_gc_blocks"]+d["store_shadow_blocks"]+d["store_padding_blocks"]) /
		float64(d["store_user_blocks"])
}

// runE2E measures one workload end to end against a real adaptserve
// child with -data-dir on the real filesystem.
func runE2E(env *environment, sp *spec, seed uint64, seconds int) (*runOutput, error) {
	work, err := os.MkdirTemp(env.workRoot, "run-")
	if err != nil {
		return nil, err
	}
	ownDir(work)
	defer os.RemoveAll(work)
	dataDir := filepath.Join(work, "data")
	volBlocks := int64(userBlocks / volumes)

	var (
		recv      atomic.Int64
		ch        *child
		l         *loader
		gens      []*generator
		setups    []float64
		attempted int64
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		ch, err = startChild(env.serverBin, dataDir, env.pidFile(), sp.nbd)
		if err != nil {
			return nil, err
		}
		defer ch.kill()
		l, err = connect(endpoints{ch.wireAddr, ch.nbdAddr}, sp, seed, volBlocks, nil, &recv)
		if err != nil {
			return nil, err
		}
		defer l.close()
		var warm *phaseResult
		gens, warm, err = prefillAndWarm(l, sp, seed, volBlocks)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		attempted += warm.attempted
		if rep < setupReps-1 {
			l.close()
			ch.kill()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
	}

	stat0, err := statsOf(ch.wireAddr, &recv)
	if err != nil {
		return nil, fmt.Errorf("STAT before the measured phase: %w", err)
	}
	recv0 := recv.Load()
	srv0, err := readProc(ch.pid())
	if err != nil {
		return nil, err
	}
	self0, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	// eff_wa is taken over a fixed number of ops, not over the time box:
	// WA climbs as the store ages, so over a fixed time a faster host
	// would report a worse store.
	var statMark map[string]int64
	var markErr error
	l.mark, l.onMark = int64(sp.waOps), func() { statMark, markErr = statsOf(ch.wireAddr, &recv) }
	span := time.Duration(seconds) * time.Second
	stop := deadlineStop(span)
	res := l.run(l.sources(func(v int) source { return workloadSource(gens[v], stop) }))
	if markErr != nil {
		return nil, fmt.Errorf("STAT at op %d of the measured phase: %w", sp.waOps, markErr)
	}
	self1, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	srv1, err := readProc(ch.pid())
	if err != nil {
		return nil, err
	}
	recv1 := recv.Load()
	stat1, err := statsOf(ch.wireAddr, &recv)
	if err != nil {
		return nil, fmt.Errorf("STAT after the measured phase: %w", err)
	}
	alloc, err := allocatedBytes(dataDir)
	if err != nil {
		return nil, err
	}
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure in the measured phase:", res.firstErr)
	}
	if statMark == nil {
		fmt.Fprintf(os.Stderr, "bench: %s finished only %d ops in %d s, short of the %d eff_wa is defined over; "+
			"taking it over the whole phase\n", sp.name, len(res.ends), seconds, sp.waOps)
		statMark = stat1
	}

	shadows := l.shadows()
	l.close()
	ch.kill()
	back, restart, err := restartAndReadBack(env, sp, seed, dataDir, shadows, &recv)
	if err != nil {
		return nil, err
	}

	m := &e2eMeasured{
		res: res, seconds: seconds,
		serverCPU: srv1.cpuTicks - srv0.cpuTicks, clientCPU: self1.cpuTicks - self0.cpuTicks,
		fileBytes: (srv1.wchar - srv0.wchar) - (recv1 - recv0),
		stat:      delta(statMark, stat0), allocated: alloc, volumeBytes: userBlocks * blockBytes,
		hwmKB: srv1.hwmKB, setups: setups,
	}
	out := &runOutput{
		Attempted: attempted + res.attempted + back.attempted,
		Failed:    res.failed + back.failed,
		Metrics:   m.metrics(),
		note:      m.forReader(restart),
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// e2eMeasured is what one untraced run observed over its measured phase.
type e2eMeasured struct {
	res                  *phaseResult
	seconds              int
	serverCPU, clientCPU int64 // clock ticks
	fileBytes            int64 // server write syscalls minus what went to sockets
	stat                 statDelta
	allocated            int64 // bytes on disk under the data directory
	volumeBytes          int64
	hwmKB                int64
	setups               []float64
}

// rates returns the sorted completion rates of the phase's one-second
// windows.
func (m *e2eMeasured) rates() []float64 {
	return sortedCopy(windowRates(m.res.ends, int64(m.seconds)*1e9, m.seconds))
}

// metrics computes the end-to-end metrics. Only ops_s is an absolute
// time: the others are counts or ratios of two things the host slows
// alike, because on a shared host absolute times move by a fifth from
// one minute to the next. See "Noise rules" in README.md.
func (m *e2eMeasured) metrics() map[string]metric {
	span := int64(m.seconds) * 1e9
	return map[string]metric{
		// Interference only ever slows a window down, so the rate of
		// the fastest tenth of the windows is the steadiest estimate of
		// what the server sustains.
		"ops_s":                     {quantile(m.rates(), 0.9), "1/s"},
		"write_tail_ratio":          {median(windowed(m.res.writes, span, 0.99, m.seconds, tailRatio)), "ratio"},
		"read_tail_ratio":           {median(windowed(m.res.reads, span, 0.99, m.seconds, tailRatio)), "ratio"},
		"server_cpu_per_client_cpu": {float64(m.serverCPU) / float64(m.clientCPU), "ratio"},
		"eff_wa":                    {m.stat.effWA(), "ratio"},
		"fs_write_amp":              {float64(m.fileBytes) / float64(m.res.writeBytes), "ratio"},
		"space_amp":                 {float64(m.allocated) / float64(m.volumeBytes), "ratio"},
		"server_rss_peak_mb":        {float64(m.hwmKB) / 1024, "MB"},
		"setup_s":                   {median(m.setups), "s"},
	}
}

// forReader renders the absolute figures a person wants to see beside
// the gated ones.
func (m *e2eMeasured) forReader(restart time.Duration) string {
	span := int64(m.seconds) * 1e9
	lat := func(c classLat, q float64) float64 {
		return median(windowed(c, span, q, m.seconds, func(s []float64) float64 { return quantile(s, q) })) / 1e3
	}
	rates := m.rates()
	return fmt.Sprintf("ungated (they move with the host's speed): "+
		"write p50 %.0f us p99 %.0f us; read p50 %.0f us p99 %.0f us; server CPU %.1f us/op; "+
		"restart %.0f ms; ops/s per window min %.0f median %.0f max %.0f",
		lat(m.res.writes, 0.5), lat(m.res.writes, 0.99), lat(m.res.reads, 0.5), lat(m.res.reads, 0.99),
		float64(m.serverCPU)/clockTicksPerSec*1e6/float64(len(m.res.ends)), float64(restart)/1e6,
		rates[0], quantile(rates, 0.5), rates[len(rates)-1])
}
