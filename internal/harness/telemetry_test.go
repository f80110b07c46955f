package harness

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// TestTelemetryIntegratesToRunTotals is the telemetry acceptance
// check: the per-window deltas of a telemetry-enabled run — exported
// to JSONL and read back — must sum exactly to the end-of-run Metrics
// totals, and the WA/padding ratio recomputed from those sums must
// match the store's own derivations.
func TestTelemetryIntegratesToRunTotals(t *testing.T) {
	sc := SmallScale()
	sc.YCSBWrites = 32 << 10 // keep the test quick; GC still activates
	ts, res, err := TelemetryRun(sc, PolicyADAPT, telemetry.Options{
		WindowInterval: 10 * sim.Millisecond,
		MaxWindows:     1 << 20, // keep every window so the sums are total
	})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Recorder.Dropped() != 0 {
		t.Fatalf("windows dropped (%d): bound too small for the run", ts.Recorder.Dropped())
	}
	ws := ts.Recorder.Windows()
	if len(ws) < 10 {
		t.Fatalf("only %d windows; expected a real time-series", len(ws))
	}

	// Round-trip through the JSONL exporter, as the harness would.
	var buf bytes.Buffer
	if err := telemetry.WriteWindowsJSONL(&buf, ws); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadWindowsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	sum := func(name string) int64 {
		var s int64
		for i := range back {
			d, _ := back[i].Delta(name)
			s += d
		}
		return s
	}
	checks := []struct {
		name string
		want int64
	}{
		{telemetry.MetricUserBlocks, res.UserBlocks},
		{telemetry.MetricGCBlocks, res.GCBlocks},
		{telemetry.MetricShadowBlocks, res.ShadowBlocks},
		{telemetry.MetricPaddingBlocks, res.PaddingBlocks},
		{telemetry.MetricSegmentsReclaimed, res.SegmentsReclaimed},
	}
	for _, c := range checks {
		if got := sum(c.name); got != c.want {
			t.Errorf("Σ windows %s = %d, run total %d", c.name, got, c.want)
		}
	}

	// The ratios recomputed from integrated windows must agree with the
	// store's own end-of-run derivations.
	user := float64(sum(telemetry.MetricUserBlocks))
	gc := float64(sum(telemetry.MetricGCBlocks))
	all := user + gc + float64(sum(telemetry.MetricShadowBlocks)) + float64(sum(telemetry.MetricPaddingBlocks))
	if wa := (user + gc) / user; math.Abs(wa-res.WA) > 1e-9 {
		t.Errorf("integrated WA %.6f, run WA %.6f", wa, res.WA)
	}
	if eff := all / user; math.Abs(eff-res.EffectiveWA) > 1e-9 {
		t.Errorf("integrated effective WA %.6f, run %.6f", eff, res.EffectiveWA)
	}
	if pr := float64(sum(telemetry.MetricPaddingBlocks)) / all; math.Abs(pr-res.PaddingRatio) > 1e-9 {
		t.Errorf("integrated padding ratio %.6f, run %.6f", pr, res.PaddingRatio)
	}

	// The last window's cumulative values are the run totals directly.
	last := &back[len(back)-1]
	if v, _ := last.Value(telemetry.MetricUserBlocks); v != res.UserBlocks {
		t.Errorf("final cumulative user blocks %d, want %d", v, res.UserBlocks)
	}

	// Windows must be disjoint and ordered on the trace clock.
	for i := 1; i < len(back); i++ {
		if back[i].Start < back[i-1].End {
			t.Fatalf("window %d overlaps previous: [%v,%v) after [%v,%v)",
				i, back[i].Start, back[i].End, back[i-1].Start, back[i-1].End)
		}
	}

	// The event stream saw GC both start and finish, and the ADAPT
	// policy traced at least one threshold adoption.
	var starts, ends, adapts int
	for _, e := range ts.Tracer.Events() {
		switch e.Type {
		case telemetry.EvGCStart:
			starts++
		case telemetry.EvGCEnd:
			ends++
		case telemetry.EvThresholdAdapt:
			adapts++
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("gc events unbalanced: %d starts, %d ends", starts, ends)
	}
	if res.GCBlocks == 0 {
		t.Error("run produced no GC traffic; test workload too small")
	}
}

func TestRenderWindowsAndEvents(t *testing.T) {
	sc := SmallScale()
	sc.YCSBWrites = 8 << 10
	ts, _, err := TelemetryRun(sc, "sepgc", telemetry.Options{WindowInterval: 20 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderWindows("test", ts.Recorder.Windows())
	if !strings.Contains(out, "eff-wa") || !strings.Contains(out, "total") {
		t.Fatalf("table missing header or total row:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 4 {
		t.Fatalf("suspiciously short table (%d lines):\n%s", lines, out)
	}
	ev := RenderEventSummary(ts.Tracer)
	if !strings.Contains(ev, "chunk_flush") || !strings.Contains(ev, "events retained") {
		t.Fatalf("event summary incomplete:\n%s", ev)
	}
	if got := RenderEventSummary(nil); !strings.Contains(got, "no tracer") {
		t.Fatalf("nil tracer rendering: %q", got)
	}
}

// TestTelemetryRoutesServeRun: the routes adaptbench -exp telemetry
// -debug mounts serve a simulator run's recorded windows and traced
// events, and the debug index lists them.
func TestTelemetryRoutesServeRun(t *testing.T) {
	sc := tinyScale()
	sc.YCSBWrites = 8 << 10
	ts, _, err := TelemetryRun(sc, PolicyADAPT, telemetry.Options{WindowInterval: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ws := ts.Recorder.Windows()
	if len(ws) == 0 || ts.Tracer.Len() == 0 {
		t.Fatalf("vacuous run: %d windows, %d events", len(ws), ts.Tracer.Len())
	}
	h := telemetry.HandlerWith(ts, TelemetryRoutes(ts))
	get := func(path, contentType string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if got := rec.Header().Get("Content-Type"); got != contentType {
			t.Fatalf("GET %s: Content-Type %q, want %q", path, got, contentType)
		}
		return rec.Body.String()
	}
	back, err := telemetry.ReadWindowsJSONL(strings.NewReader(get("/series.jsonl", "application/x-ndjson")))
	if err != nil || len(back) != len(ws) {
		t.Fatalf("/series.jsonl: %d windows (%v), recorder holds %d", len(back), err, len(ws))
	}
	if rows := strings.Count(get("/series.csv", "text/csv"), "\n"); rows != len(ws)+1 {
		t.Fatalf("/series.csv: %d lines, want a header and %d windows", rows, len(ws))
	}
	if n := strings.Count(get("/events.jsonl", "application/x-ndjson"), "\n"); n != ts.Tracer.Len() {
		t.Fatalf("/events.jsonl: %d events, tracer holds %d", n, ts.Tracer.Len())
	}
	index := get("/", "text/plain; charset=utf-8")
	for path := range TelemetryRoutes(ts) {
		if !strings.Contains(index, path+"\n") {
			t.Errorf("index does not list %s:\n%s", path, index)
		}
	}
}
