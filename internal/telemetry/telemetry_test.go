package telemetry

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"adapt/internal/sim"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *Recorder
	var tr *Tracer
	c.Add(5)
	c.Inc()
	g.Set(3)
	g.Add(1)
	h.Observe(9)
	rec.TickTo(sim.Second)
	rec.Finish(sim.Second)
	tr.Emit(GCStart(0, 1))
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Fatal("nil instruments must be inert no-ops")
	}
	if rec.Windows() != nil || tr.Events() != nil {
		t.Fatal("nil accessors must return empty")
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "a counter")
	g := reg.NewGauge("g", "a gauge")
	v := int64(7)
	fg := reg.NewFuncGauge("fg_total", "func gauge", true, func() int64 { return v })
	c.Add(3)
	g.Set(-2)
	if c.Load() != 3 || g.Load() != -2 {
		t.Fatalf("counter/gauge loads: %d %d", c.Load(), g.Load())
	}
	if fg.Load() != 7 {
		t.Fatalf("func gauge Load = %d, want 7", fg.Load())
	}
	v = 11
	if fg.Load() != 11 {
		t.Fatalf("func gauge must read live: Load = %d, want 11", fg.Load())
	}
	mu := countingLocker{tally: &lockTally{}}
	gg := reg.Guarded(&mu).NewFuncGauge("guarded", "guarded gauge", false, func() int64 {
		if !mu.holding {
			t.Error("guarded gauge evaluated without its guard")
		}
		return v
	})
	if gg.Load() != 11 || mu.locks != 1 {
		t.Fatalf("guarded Load = %d after %d lock(s), want 11 after 1", gg.Load(), mu.locks)
	}
	if got := len(reg.Names()); got != 4 {
		t.Fatalf("guarded view registered into its own registry: %d names, want 4", got)
	}
	if !c.Cumulative() || g.Cumulative() || !fg.Cumulative() {
		t.Fatal("cumulative flags wrong")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	reg.NewCounter("c_total", "dup")
}

// lockTally is shared by the countingLockers of one test: how many are
// held right now, and the most ever held at once.
type lockTally struct{ held, most int }

// countingLocker is a mutex that counts its acquisitions into itself
// and its holds into the shared tally.
type countingLocker struct {
	mu      sync.Mutex
	tally   *lockTally
	locks   int
	holding bool
}

func (l *countingLocker) Lock() {
	l.mu.Lock()
	l.locks++
	l.holding = true
	l.tally.held++
	l.tally.most = max(l.tally.most, l.tally.held)
}

func (l *countingLocker) Unlock() {
	l.tally.held--
	l.holding = false
	l.mu.Unlock()
}

// TestWritePromTakesEachGuardOnce scrapes function gauges spread,
// interleaved, over two owners' locks: each lock is taken once per
// scrape however many gauges it guards, the two are never held
// together, and every gauge is read under its own.
func TestWritePromTakesEachGuardOnce(t *testing.T) {
	reg := NewRegistry()
	tally := &lockTally{}
	locks := []*countingLocker{{tally: tally}, {tally: tally}}
	for i := 0; i < 6; i++ {
		l := locks[i%2]
		reg.Guarded(l).NewFuncGauge(fmt.Sprintf(`owned{owner="%d",i="%d"}`, i%2, i), "o", false, func() int64 {
			if !l.holding || l.tally.held != 1 {
				t.Errorf("gauge %d evaluated without its own guard held alone", i)
			}
			return int64(10 + i)
		})
	}
	reg.NewCounter("free_total", "unguarded").Add(3)
	for scrape := 1; scrape <= 2; scrape++ {
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		for i, l := range locks {
			if l.locks != scrape {
				t.Fatalf("after %d scrape(s) lock %d taken %d times, want %d", scrape, i, l.locks, scrape)
			}
		}
		for _, frag := range []string{`owned{owner="0",i="0"} 10`, `owned{owner="1",i="5"} 15`, "free_total 3"} {
			if !strings.Contains(buf.String(), frag) {
				t.Errorf("scrape missing %q:\n%s", frag, buf.String())
			}
		}
	}
	if tally.most != 1 || tally.held != 0 {
		t.Fatalf("at most %d locks held at once (%d still held), want 1 (0)", tally.most, tally.held)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("pad_blocks", "padding per flush", []int64{0, 2, 8})
	for _, v := range []int64{0, 0, 1, 2, 5, 9, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 2} // <=0, <=2, <=8, overflow
	for i, w := range want {
		if got := h.Bucket(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 || h.Sum() != 117 {
		t.Fatalf("count=%d sum=%d, want 7/117", h.Count(), h.Sum())
	}
}

func TestRecorderWindows(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("x_total", "")
	g := reg.NewGauge("depth", "")
	rec := NewRecorder(reg, 10*sim.Millisecond, 0)

	rec.TickTo(0) // anchors the grid
	c.Add(5)
	g.Set(2)
	rec.TickTo(3 * sim.Millisecond) // same window: no close
	if len(rec.Windows()) != 0 {
		t.Fatal("window closed early")
	}
	rec.TickTo(12 * sim.Millisecond) // crosses the 10 ms boundary
	c.Add(7)
	g.Set(9)
	// Long silence: all activity since the last tick lands in one
	// window; the empty interior windows are skipped, not emitted.
	rec.TickTo(57 * sim.Millisecond)
	rec.Finish(61 * sim.Millisecond) // due boundary, then partial tail

	ws := rec.Windows()
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4: %+v", len(ws), ws)
	}
	if ws[0].Start != 0 || ws[0].End != 10*sim.Millisecond {
		t.Fatalf("window 0 spans [%v, %v)", ws[0].Start, ws[0].End)
	}
	if d, _ := ws[0].Delta("x_total"); d != 5 {
		t.Fatalf("window 0 delta = %d, want 5", d)
	}
	if d, _ := ws[0].Delta("depth"); d != 2 {
		t.Fatalf("window 0 gauge sample = %d, want 2", d)
	}
	// The activity between 12 ms and 57 ms lands in the first window
	// closed after it ([10, 20)); the empty 20–50 ms stretch is skipped.
	if ws[1].Start != 10*sim.Millisecond || ws[1].End != 20*sim.Millisecond {
		t.Fatalf("window 1 spans [%v, %v), want [10ms, 20ms)", ws[1].Start, ws[1].End)
	}
	if d, _ := ws[1].Delta("x_total"); d != 7 {
		t.Fatalf("window 1 delta = %d, want 7", d)
	}
	// Finish closes the boundary window that became due since the last
	// tick, then the partial tail up to now.
	if ws[2].Start != 50*sim.Millisecond || ws[2].End != 60*sim.Millisecond {
		t.Fatalf("window 2 spans [%v, %v), want [50ms, 60ms)", ws[2].Start, ws[2].End)
	}
	if ws[3].Start != 60*sim.Millisecond || ws[3].End != 61*sim.Millisecond {
		t.Fatalf("tail window spans [%v, %v), want [60ms, 61ms)", ws[3].Start, ws[3].End)
	}
	if v, _ := ws[3].Value("x_total"); v != 12 {
		t.Fatalf("tail cumulative = %d, want 12", v)
	}
	// Finish is idempotent for an unchanged clock.
	rec.Finish(61 * sim.Millisecond)
	if got := len(rec.Windows()); got != 4 {
		t.Fatalf("second Finish added windows: %d", got)
	}
	// Delta sums must integrate to the cumulative total.
	var sum int64
	for i := range ws {
		d, _ := ws[i].Delta("x_total")
		sum += d
	}
	if sum != c.Load() {
		t.Fatalf("delta sum %d != counter %d", sum, c.Load())
	}
}

func TestRecorderRingBound(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("x_total", "")
	rec := NewRecorder(reg, sim.Millisecond, 4)
	rec.TickTo(0)
	for i := 1; i <= 10; i++ {
		c.Inc()
		rec.TickTo(sim.Time(i) * sim.Millisecond)
	}
	ws := rec.Windows()
	if len(ws) != 4 {
		t.Fatalf("ring holds %d windows, want 4", len(ws))
	}
	if rec.Dropped() == 0 {
		t.Fatal("expected dropped windows")
	}
	if ws[0].Index+3 != ws[3].Index {
		t.Fatalf("ring not contiguous: %d..%d", ws[0].Index, ws[3].Index)
	}
}

func TestRecorderLateRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("a_total", "")
	rec := NewRecorder(reg, sim.Millisecond, 0)
	rec.TickTo(0)
	a.Add(2)
	rec.TickTo(sim.Millisecond + 1)
	// A second instrument appears mid-run (e.g. prototype device gauges
	// attach after the store's): it must delta from zero.
	b := reg.NewCounter("b_total", "")
	b.Add(9)
	rec.TickTo(2*sim.Millisecond + 1)
	ws := rec.Windows()
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if _, ok := ws[0].Delta("b_total"); ok {
		t.Fatal("first window must not know the late instrument")
	}
	if d, _ := ws[1].Delta("b_total"); d != 9 {
		t.Fatalf("late instrument delta = %d, want 9", d)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(GCStart(sim.Time(i), i))
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4/2", tr.Len(), tr.Dropped())
	}
	ev := tr.Events()
	if ev[0].Seq != 2 || ev[3].Seq != 5 {
		t.Fatalf("ring window [%d, %d], want [2, 5]", ev[0].Seq, ev[3].Seq)
	}
}

func TestEventJSONLSchema(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(GCStart(1, 7))
	tr.Emit(GCEnd(2, 3, 40, 100))
	tr.Emit(SegmentSeal(3, 1, 12, 500))
	tr.Emit(ChunkFlush(4, 0, 12, 3, 14, 2))
	tr.Emit(PadFlush(5, 0, 2, FlushSLA))
	tr.Emit(ThresholdAdapt(6, 4096.5, 2))
	tr.Emit(Demote(7, 3, 99))
	tr.Emit(Recovery(8, 5, 1234))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("%d lines, want 8", len(lines))
	}
	want := []string{
		`"type":"gc_start","free_segments":7`,
		`"type":"gc_end","reclaimed":3,"migrated":40,"scanned":100`,
		`"type":"segment_seal","group":1,"segment":12,"valid":500`,
		`"type":"chunk_flush","group":0,"segment":12,"chunk":3,"payload_blocks":14,"pad_blocks":2`,
		`"type":"pad_flush","group":0,"pad_blocks":2,"reason":"sla"`,
		`"type":"threshold_adapt","threshold":4096.5,"adoptions":2`,
		`"type":"demote","group":3,"lba":99`,
		`"type":"recovery","segments":5,"live_blocks":1234`,
	}
	for i, frag := range want {
		if !strings.Contains(lines[i], frag) {
			t.Errorf("line %d = %s\n  missing %s", i, lines[i], frag)
		}
	}
}

func TestWindowsJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("lss_user_blocks_total", "")
	gc := reg.NewCounter("lss_gc_blocks_total", "")
	rec := NewRecorder(reg, sim.Millisecond, 0)
	rec.TickTo(0)
	c.Add(100)
	gc.Add(20)
	rec.TickTo(sim.Millisecond + 1)
	c.Add(50)
	rec.Finish(sim.Millisecond + sim.Millisecond/2)

	ws := rec.Windows()
	var buf bytes.Buffer
	if err := WriteWindowsJSONL(&buf, ws); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWindowsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ws) {
		t.Fatalf("round trip: %d windows, want %d", len(back), len(ws))
	}
	for i := range ws {
		if back[i].Index != ws[i].Index || back[i].Start != ws[i].Start || back[i].End != ws[i].End {
			t.Fatalf("window %d header mismatch: %+v vs %+v", i, back[i], ws[i])
		}
		for j, name := range ws[i].Names {
			d, ok := back[i].Delta(name)
			if !ok || d != ws[i].Deltas[j] {
				t.Fatalf("window %d metric %s: delta %d (ok=%v), want %d", i, name, d, ok, ws[i].Deltas[j])
			}
			v, _ := back[i].Value(name)
			if v != ws[i].Values[j] {
				t.Fatalf("window %d metric %s: value %d, want %d", i, name, v, ws[i].Values[j])
			}
		}
		if got, want := Derive(&back[i]), Derive(&ws[i]); got.WA != want.WA || got.EffectiveWA != want.EffectiveWA {
			t.Fatalf("window %d derived mismatch: %+v vs %+v", i, got, want)
		}
	}

	// A crafted row (adaptbench -replay reads whatever file it is given)
	// whose device-busy key opens a label brace and never closes it
	// must replay as an unlabelled device, not panic in the label parse.
	crafted := `{"window":0,"start_ns":0,"end_ns":1000,"deltas":{"proto_device_busy_ns_total{":500},"values":{}}`
	back, err = ReadWindowsJSONL(strings.NewReader(crafted))
	if err != nil || len(back) != 1 {
		t.Fatalf("crafted row: %d windows, %v", len(back), err)
	}
	if got := Derive(&back[0]).DeviceUtil; len(got) != 1 || got[""] != 0.5 {
		t.Fatalf("crafted row device utilization = %v, want map[:0.5]", got)
	}
}

func TestDerive(t *testing.T) {
	w := Window{
		Start: 0,
		End:   sim.Second,
		Names: []string{
			MetricGCBlocks, MetricGCCycles, MetricPaddingBlocks,
			MetricShadowBlocks, MetricUserBlocks,
			`lss_group_blocks_total{group="0"}`,
			`proto_device_busy_ns_total{device="1"}`,
		},
		Deltas: []int64{50, 4, 40, 10, 100, 120, int64(sim.Second / 2)},
	}
	d := Derive(&w)
	if d.WA != 1.5 {
		t.Errorf("WA = %v, want 1.5", d.WA)
	}
	if d.EffectiveWA != 2 {
		t.Errorf("EffectiveWA = %v, want 2", d.EffectiveWA)
	}
	if d.PaddingRatio != 0.2 {
		t.Errorf("PaddingRatio = %v, want 0.2", d.PaddingRatio)
	}
	if d.GCCyclesPerSec != 4 {
		t.Errorf("GCCyclesPerSec = %v, want 4", d.GCCyclesPerSec)
	}
	if got := d.GroupShare["0"]; got != 0.6 {
		t.Errorf("GroupShare[0] = %v, want 0.6", got)
	}
	if got := d.DeviceUtil["1"]; got != 0.5 {
		t.Errorf("DeviceUtil[1] = %v, want 0.5", got)
	}
}

func TestPromExposition(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x_total", "things").Add(4)
	reg.NewCounter(`fam_total{group="2"}`, "labelled family").Add(9)
	h := reg.NewHistogram("sizes", "size histo", []int64{1, 10})
	h.Observe(0)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# HELP x_total things",
		"# TYPE x_total counter",
		"x_total 4",
		"# TYPE fam_total counter",
		`fam_total{group="2"} 9`,
		`sizes_bucket{le="1"} 1`,
		`sizes_bucket{le="10"} 2`,
		`sizes_bucket{le="+Inf"} 3`,
		"sizes_sum 55",
		"sizes_count 3",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, out)
		}
	}
}

// promSample is the text-exposition grammar of one sample line as this
// registry emits it: a metric name, an optional {k="v",...} label set,
// and an integer value.
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+$`)

// TestPromExpositionLabelled renders the shapes a sharded server
// registers — per-shard scalars whose families interleave in
// registration order, labelled histograms — and holds every line to the
// exposition grammar: each sample parses, sits under its own family's
// header, and no family is declared twice (a second TYPE line is a
// parse error in Prometheus).
func TestPromExpositionLabelled(t *testing.T) {
	reg := NewRegistry()
	for shard := 0; shard < 2; shard++ {
		reg.NewCounter(fmt.Sprintf(`a_total{shard="%d"}`, shard), "a").Add(int64(shard))
		reg.NewFuncGauge(fmt.Sprintf(`free{shard="%d"}`, shard), "f", false, func() int64 { return -3 })
		reg.NewCounter(fmt.Sprintf(`grp_total{group="1",shard="%d"}`, shard), "g")
		reg.NewHistogram(fmt.Sprintf(`pad{shard="%d"}`, shard), "p", []int64{1, 8}).Observe(5)
	}
	reg.NewHistogram("plain", "unlabelled", []int64{2}).Observe(1)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types := make(map[string]string)
	current := ""
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			if f[1] == "TYPE" {
				if _, dup := types[f[2]]; dup {
					t.Errorf("family %s declared twice", f[2])
				}
				types[f[2]] = f[3]
				current = f[2]
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line violates the exposition grammar: %q", line)
			continue
		}
		samples++
		fam := m[1]
		if types[current] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				fam = strings.TrimSuffix(fam, suffix)
			}
		}
		if fam != current {
			t.Errorf("sample %q sits under family %q", line, current)
		}
	}
	if want := 6 + 2*5 + 4; samples != want {
		t.Errorf("%d sample lines, want %d:\n%s", samples, want, out)
	}
	for _, frag := range []string{
		`pad_bucket{shard="1",le="8"} 1`,
		`pad_bucket{shard="0",le="+Inf"} 1`,
		`pad_sum{shard="1"} 5`,
		`pad_count{shard="0"} 1`,
		`grp_total{group="1",shard="1"} 0`,
		`plain_bucket{le="2"} 1`,
		"plain_sum 1",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, out)
		}
	}
}

func TestLabelValue(t *testing.T) {
	if got := LabelValue(`lss_group_blocks_total{group="3"}`, "group"); got != "3" {
		t.Errorf("LabelValue = %q, want 3", got)
	}
	if got := LabelValue("plain_total", "group"); got != "" {
		t.Errorf("LabelValue on unlabelled = %q, want empty", got)
	}
	if got := LabelValue(`m{a="1",b="2"}`, "b"); got != "2" {
		t.Errorf("two-label LabelValue = %q, want 2", got)
	}
}
