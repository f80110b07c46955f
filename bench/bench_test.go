package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/nbd/nbdtest"
	"adapt/internal/prototype"
	"adapt/internal/telemetry"
)

// streamHash digests the first n draws of every volume's stream.
func streamHash(sp *spec, seed uint64, volumes int, volBlocks int64, n int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for v := 0; v < volumes; v++ {
		g := newGenerator(sp, seed, v, volBlocks)
		for i := 0; i < n; i++ {
			o := g.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(b[1:], uint64(o.off))
			binary.LittleEndian.PutUint64(b[9:], uint64(o.n))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a := streamHash(sp, 7, volumes, 2048, 5000)
		if b := streamHash(sp, 7, volumes, 2048, 5000); a != b {
			t.Errorf("%s: same seed gave op-stream hashes %x and %x", sp.name, a, b)
		}
		if c := streamHash(sp, 8, volumes, 2048, 5000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op-stream hash %x", sp.name, a)
		}
	}
}

func TestGeneratorHonoursTheMix(t *testing.T) {
	sp := findSpec("nbd-mixed")
	g := newGenerator(sp, 1, 0, 32768)
	var writes, unaligned, flushes, data int
	for i := 0; i < 200000; i++ {
		o := g.next()
		if o.kind == opFlush {
			flushes++
			continue
		}
		data++
		if o.kind == opWrite {
			writes++
		}
		if o.off%blockBytes != 0 {
			unaligned++
		}
		if o.off < 0 || o.off+int64(o.n) > 32768*blockBytes {
			t.Fatalf("op [%d,+%d) outside the volume", o.off, o.n)
		}
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.4f, want %.3f ± 0.01", name, got, want)
		}
	}
	near("write", float64(writes)/float64(data), 0.5)
	near("unaligned", float64(unaligned)/float64(data), 0.25)
	if flushes != 200000/512 {
		t.Errorf("%d flushes in 200000 draws, want %d", flushes, 200000/512)
	}
}

func TestQuantileAndWindows(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("median of 0..100 = %v", got)
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 0..100 = %v", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of {1,2} = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}

	// 10 windows of 1 s; window k holds 100·(k+1) completions, and one
	// more lands after the deadline.
	var ends []int64
	for k := 0; k < 10; k++ {
		for i := 0; i < 100*(k+1); i++ {
			ends = append(ends, int64(k)*1e9+int64(i))
		}
	}
	ends = append(ends, 10e9+5)
	rates := windowRates(ends, 10e9, 10)
	for k, r := range rates {
		if r != float64(100*(k+1)) {
			t.Errorf("window %d rate %v, want %d", k, r, 100*(k+1))
		}
	}
	if got := median(rates); got != 550 {
		t.Errorf("median window rate %v, want 550", got)
	}

	// Nine quiet windows and one with a stall: the windowed p99 is the
	// quiet windows' p99, the plain p99 is not.
	var c classLat
	for k := 0; k < 10; k++ {
		for i := 0; i < 2000; i++ {
			lat := int64(100 + i%100)
			if k == 3 && i%5 == 0 {
				lat = 1e6
			}
			c.add(int64(k)*1e9+int64(i), lat)
		}
	}
	p99 := func(s []float64) float64 { return quantile(s, 0.99) }
	if got := median(windowed(c, 10e9, 0.99, 10, p99)); got < 190 || got > 200 {
		t.Errorf("windowed p99 = %v, want the quiet windows' ≈199", got)
	}
	plain := sortedCopy(toFloats(c.lat, 1))
	if got := quantile(plain, 0.99); got < 1e5 {
		t.Errorf("plain p99 = %v: the fixture's stall should dominate it", got)
	}
	// Too few samples for two windows: the plain quantile.
	small := classLat{end: []int64{1, 2, 3}, lat: []int64{10, 20, 30}}
	if got := windowed(small, 10e9, 0.5, 10, func(s []float64) float64 { return quantile(s, 0.5) }); len(got) != 1 || got[0] != 20 {
		t.Errorf("three samples windowed to %v, want one window with median 20", got)
	}
	// p99 ÷ p50 of 1..101 is 100 ÷ 51.
	ramp := make([]float64, 101)
	for i := range ramp {
		ramp[i] = float64(i + 1)
	}
	if got := tailRatio(ramp); math.Abs(got-100.0/51) > 1e-9 {
		t.Errorf("tailRatio of 1..101 = %v", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// One wire request with one engine child; one NBD unaligned write:
	// request → backend read, backend write → an engine call under each.
	spans := []span{
		{kind: kindRequest, vol: 0, first: 10, past: 11, start: 100, end: 200, parent: -1},
		{kind: kindEngineRead, vol: 0, first: 10, past: 11, start: 120, end: 150, parent: -1, call: 1},

		{kind: kindRequest, vol: 1, first: 40, past: 43, start: 1000, end: 2000, write: true, parent: -1},
		{kind: kindBackendRead, vol: 1, first: 40, past: 41, start: 1100, end: 1200, parent: -1},
		{kind: kindEngineRead, vol: 1, first: 40, past: 41, start: 1110, end: 1150, parent: -1, call: 2},
		{kind: kindBackendWrite, vol: 1, first: 40, past: 43, start: 1200, end: 1900, parent: -1},
		{kind: kindEngineWrite, vol: 1, first: 40, past: 43, start: 1500, end: 1800, parent: -1, call: 3},

		// A later request on the same blocks must not adopt the
		// earlier children.
		{kind: kindRequest, vol: 0, first: 10, past: 11, start: 300, end: 400, parent: -1},
		// An engine span with no recorded request is an orphan.
		{kind: kindEngineRead, vol: 0, first: 99, past: 100, start: 10, end: 20, parent: -1, call: 4},
	}
	if orphans := link(spans); orphans != 1 {
		t.Errorf("%d orphans, want 1", orphans)
	}
	wantParent := []int32{-1, 0, -1, 2, 3, 2, 5, -1, -1}
	for i, w := range wantParent {
		if spans[i].parent != w {
			t.Errorf("span %d parent %d, want %d", i, spans[i].parent, w)
		}
	}
	self := selfTimes(spans)
	wantSelf := []int64{70, 30, 200, 60, 40, 400, 300, 100, 10}
	for i, w := range wantSelf {
		if self[i] != w {
			t.Errorf("span %d self %d, want %d", i, self[i], w)
		}
	}
	checkTrees(t, spans, self)
}

// checkTrees asserts, for every tree, that children lie inside their
// parents and that the self times sum exactly to the root's duration.
func checkTrees(t *testing.T, spans []span, self []int64) {
	t.Helper()
	sum := make(map[int32]int64)
	for i := range spans {
		s := &spans[i]
		root := int32(i)
		for spans[root].parent >= 0 {
			root = spans[root].parent
		}
		sum[root] += self[i]
		if s.parent >= 0 {
			if p := &spans[s.parent]; s.start < p.start || s.end > p.end {
				t.Fatalf("span %d [%d,%d] lies outside its parent %d [%d,%d]", i, s.start, s.end, s.parent, p.start, p.end)
			}
		}
	}
	for root, total := range sum {
		if d := spans[root].end - spans[root].start; total != d {
			t.Fatalf("tree rooted at span %d: self times sum to %d, root lasts %d", root, total, d)
		}
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (adapt serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 123456 2649404000 41263 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	if got, err := parseStatCPU(stat); err != nil || got != 1000 {
		t.Errorf("parseStatCPU = %d, %v; want 1000", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	status := "Name:\tadaptserve\nVmPeak:\t 2649404 kB\nVmHWM:\t  547328 kB\nVmRSS:\t  165052 kB\n"
	if got, err := parseStatusHWM(status); err != nil || got != 547328 {
		t.Errorf("parseStatusHWM = %d, %v; want 547328", got, err)
	}
	io := "rchar: 1000\nwchar: 987654321\nsyscr: 5\nsyscw: 6\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	if got, err := parseIOWchar(io); err != nil || got != 987654321 {
		t.Errorf("parseIOWchar = %d, %v; want 987654321", got, err)
	}
	if _, err := parseIOWchar("rchar: 1\n"); err == nil {
		t.Error("parseIOWchar found a wchar that is not there")
	}
}

func TestWrappedADAPTKeepsEveryExtension(t *testing.T) {
	cfg := harness.StoreConfig(4096, lss.Greedy)
	adapt, err := harness.BuildPolicy(harness.PolicyADAPT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := wrapPolicy(adapt, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapped.(lss.Advisor); !ok {
		t.Error("wrapped ADAPT lost lss.Advisor: cross-group aggregation would be off")
	}
	if _, ok := wrapped.(lss.SegmentObserver); !ok {
		t.Error("wrapped ADAPT lost lss.SegmentObserver")
	}
	if _, ok := wrapped.(prototype.FootprintReporter); !ok {
		t.Error("wrapped ADAPT lost prototype.FootprintReporter")
	}
	if _, ok := wrapped.(interface{ SetTelemetry(*telemetry.Set) }); !ok {
		t.Error("wrapped ADAPT lost SetTelemetry")
	}
	if wrapped.Name() != adapt.Name() || wrapped.Groups() != adapt.Groups() {
		t.Error("wrapped ADAPT changed its name or group count")
	}
	// A baseline without the Advisor hook must be refused, not wrapped
	// into something that claims it.
	sepgc, err := harness.BuildPolicy("sepgc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapPolicy(sepgc, newRecorder()); err == nil {
		t.Error("wrapPolicy accepted a policy without the optional extensions")
	}
}

func TestPipelinedNBDClientAgainstIndependentClient(t *testing.T) {
	p, err := startInproc(t.TempDir(), 4096, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop(true)
	mine, err := dialNBD(p.ep.nbd, nbd.ExportName(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Close()
	theirs, err := nbdtest.Dial(p.ep.nbd, nbd.ExportName(1))
	if err != nil {
		t.Fatal(err)
	}
	defer theirs.Close()
	if mine.size != theirs.Info().Size {
		t.Fatalf("export size %d, independent client saw %d", mine.size, theirs.Info().Size)
	}

	pool := newPayloadPool(3)
	// Written through the pipelined client, 8 at once, unaligned
	// included; read back through the independent one.
	type piece struct {
		off  uint64
		data []byte
	}
	var pieces []piece
	for i := 0; i < 8; i++ {
		n := blockBytes * (1 + i%3)
		off := uint64(i*5*blockBytes + i*17)
		pieces = append(pieces, piece{off, append([]byte(nil), pool.fill(nil, n, uint64(i+1))...)})
	}
	errs := make(chan error, len(pieces))
	for _, pc := range pieces {
		go func(pc piece) { errs <- mine.Write(pc.off, pc.data) }(pc)
	}
	for range pieces {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := mine.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, pc := range pieces {
		got, err := theirs.Read(pc.off, uint32(len(pc.data)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(pc.data) {
			t.Fatalf("independent client read differs at offset %d", pc.off)
		}
	}
	// And the reverse: written one at a time by the independent
	// client, read back 8 at once by the pipelined one.
	for i := range pieces {
		pieces[i].off += 100 * blockBytes
		if err := theirs.Write(pieces[i].off, pieces[i].data, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, pc := range pieces {
		go func(pc piece) {
			got, err := mine.Read(pc.off, uint32(len(pc.data)))
			if err == nil && string(got) != string(pc.data) {
				err = os.ErrInvalid
			}
			errs <- err
		}(pc)
	}
	for range pieces {
		if err := <-errs; err != nil {
			t.Fatalf("pipelined read of the independent client's write: %v", err)
		}
	}
}

// smoke runs ops of a workload against an in-process server at a tiny
// geometry with the decorators on, checks every read against the shadow,
// then closes the server, reopens the directory and reads everything
// back. It returns the measured phase and the read-back.
func smoke(t *testing.T, sp *spec, ops int, corrupt bool) (measured, back *phaseResult, rec *recorder) {
	t.Helper()
	const blocks = 4096
	volBlocks := int64(blocks / volumes)
	dir := t.TempDir()
	rec = newRecorder()
	rec.enabled.Store(true)
	p, err := startInproc(dir, blocks, sp.nbd, rec)
	if err != nil {
		t.Fatal(err)
	}
	var recv atomic.Int64
	tiny := *sp
	tiny.warmupOps = 200
	l, err := connect(p.ep, &tiny, 11, volBlocks, nil, &recv)
	if err != nil {
		t.Fatal(err)
	}
	gens, _, err := prefillAndWarm(l, &tiny, 11, volBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		l.vols[0].shadow[12345] ^= 0xff
	}
	stop := countStop(ops)
	measured = l.run(l.sources(func(v int) source { return workloadSource(gens[v], stop) }))
	shadows := l.shadows()
	l.close()
	if err := p.stop(true); err != nil {
		t.Fatal(err)
	}

	p2, err := startInproc(dir, blocks, sp.nbd, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.stop(true)
	l2, err := connect(p2.ep, &tiny, 11, volBlocks, shadows, &recv)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	back = l2.run(l2.sources(func(int) source { return sweepSource(opRead, volBlocks) }))
	return measured, back, rec
}

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			measured, back, rec := smoke(t, sp, 3000, false)
			if measured.attempted != 3000 || measured.failed != 0 {
				t.Fatalf("measured phase: %d attempted, %d failed: %v", measured.attempted, measured.failed, measured.firstErr)
			}
			if back.failed != 0 {
				t.Fatalf("read-back after reopen: %d of %d failed: %v", back.failed, back.attempted, back.firstErr)
			}
			spans := rec.recorded()
			orphans := link(spans)
			if len(spans) < 3000 || orphans > len(spans)/100 {
				t.Fatalf("%d spans, %d orphans", len(spans), orphans)
			}
			self := selfTimes(spans)
			checkTrees(t, spans, self)
			checkLayerNames(t, &tracedRun{sp: sp, rec: rec, spans: spans, self: self, orphans: orphans,
				traced: measured, tracedSpan: int64(measured.elapsed), plainRates: []float64{1}, plainWA: []float64{1}})
			if rec.policy.placeUserCalls.Load() == 0 || rec.engineCalls.Load() == 0 {
				t.Errorf("decorators saw no traffic: %d engine calls, %d PlaceUser calls",
					rec.engineCalls.Load(), rec.policy.placeUserCalls.Load())
			}
			if sp.nbd && rec.backendCalls.Load() == 0 {
				t.Error("the VolumeBackend decorator saw no NBD traffic")
			}
		})
	}
}

func TestCorruptShadowByteIsReported(t *testing.T) {
	measured, back, _ := smoke(t, findSpec("read-mostly"), 2000, true)
	if measured.failed+back.failed == 0 {
		t.Fatal("a corrupted shadow byte went unnoticed by both the in-line verify and the read-back")
	}
	if back.failed != 1 {
		t.Errorf("read-back reported %d failures, want exactly the one corrupted chunk", back.failed)
	}
}

func TestRefuseBesideLiveChild(t *testing.T) {
	pidFile := filepath.Join(t.TempDir(), "child.pid")
	if err := refuseIfAlive(pidFile); err != nil {
		t.Errorf("no pid file, yet: %v", err)
	}
	// This test process is alive but is not an adaptserve.
	os.WriteFile(pidFile, []byte("1"), 0o644)
	if err := refuseIfAlive(pidFile); err != nil {
		t.Errorf("pid 1 is not an adaptserve, yet: %v", err)
	}
}

func TestRungs(t *testing.T) {
	cfg := harness.StoreConfig(2048, lss.Greedy)
	for _, name := range []string{"small-write", "nbd-mixed"} {
		sp := findSpec(name)
		r, err := runRungs(sp, 5, cfg, 100e3, t.TempDir(), 1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.appendNSPerBlock <= 0 || r.gcNSPerBlockMoved <= 0 || r.segAppendUSMean <= 0 || r.recoverMS <= 0 {
			t.Errorf("%s: a rung measured nothing: %+v", name, r)
		}
		if (r.encodeNS > 0) == sp.nbd {
			t.Errorf("%s: wire rung ran=%v on an nbd=%v workload", name, r.encodeNS > 0, sp.nbd)
		}
	}
}

var _ net.Conn = (*tracedConn)(nil)

// benchmarkJSON is the parts of ../BENCHMARK.json the tests hold the
// code to.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameNames fails unless the metrics reported are exactly the ones
// listed, with the listed units.
func sameNames(t *testing.T, what string, listed []struct{ Name, Unit string }, reported map[string]metric) {
	t.Helper()
	for _, l := range listed {
		m, ok := reported[l.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the code does not report it", what, l.Name)
		} else if m.Unit != l.Unit {
			t.Errorf("%s: %s is reported in %q, listed in %q", what, l.Name, m.Unit, l.Unit)
		}
	}
	if len(listed) != len(reported) {
		for name := range reported {
			found := false
			for _, l := range listed {
				found = found || l.Name == name
			}
			if !found {
				t.Errorf("%s: the code reports %s, BENCHMARK.json does not list it", what, name)
			}
		}
	}
}

func checkLayerNames(t *testing.T, r *tracedRun) {
	t.Helper()
	sameNames(t, "per_layer", readBenchmarkJSON(t).PerLayer, r.metrics())
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	bf := readBenchmarkJSON(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json and %q (%q) in the code", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	res := &phaseResult{writeBytes: 1}
	for i := int64(0); i < 2000; i++ {
		res.ends = append(res.ends, i*1e6)
		res.writes.add(i*1e6, 100+i%7)
		res.reads.add(i*1e6, 50+i%5)
	}
	m := &e2eMeasured{res: res, seconds: 2, serverCPU: 3, clientCPU: 2, fileBytes: 1, allocated: 1, volumeBytes: 1,
		hwmKB: 1, setups: []float64{1}, stat: statDelta{"store_user_blocks": 1}}
	got := m.metrics()
	sameNames(t, "end_to_end", bf.EndToEnd, got)
	for name, v := range got {
		if v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("end-to-end metric %s = %v on a plain fixture; the contract wants it never 0", name, v.Value)
		}
	}
}
