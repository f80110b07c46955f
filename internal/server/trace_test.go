package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adapt/internal/prototype"
	"adapt/internal/server/wire"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// testEngineTele is testEngine plus a dedicated telemetry set, so GC
// interference intervals and trace histograms are live.
func testEngineTele(t *testing.T, userBlocks int64) (*prototype.Sharded, *telemetry.Set) {
	t.Helper()
	ts := telemetry.New(telemetry.Options{})
	e, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:     testStoreConfig(userBlocks),
			Telemetry: ts,
		},
		Shards:        1,
		PolicyFactory: sepGCFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, ts
}

// traceServer boots a traced server over loopback; every client request
// is forced into the exemplar ring via FlagTrace.
func traceServer(t *testing.T) (*Server, *Client, func()) {
	t.Helper()
	eng, ts := testEngineTele(t, 4096)
	srv, err := New(Config{
		Engine:    eng,
		Volumes:   2,
		Telemetry: ts,
		Trace:     TraceConfig{Enabled: true, Threshold: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	c := dial(t, addr, 1)
	c.SetTraceEvery(1)
	return srv, c, func() {
		stop()
		eng.Close()
	}
}

// waitExemplars polls until at least n exemplars are visible (span
// finalization happens after the response hits the socket, so the
// client can observe a completion slightly before the span publishes).
func waitExemplars(t *testing.T, srv *Server, n int) []Exemplar {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		exs := srv.TraceSnapshot(0, 1000)
		if len(exs) >= n {
			return exs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d exemplars, have %d", n, len(exs))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTraceEndToEnd(t *testing.T) {
	srv, c, stop := traceServer(t)
	defer stop()

	want := pattern(1, 3, 1)
	if err := c.Write(3, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got, err := c.Read(3, 1); err != nil || string(got) != string(want) {
		t.Fatalf("read: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	exs := waitExemplars(t, srv, 3)
	var sawWrite, sawRead, sawFlush bool
	for _, ex := range exs {
		sp := ex.Span
		if !sp.Forced {
			t.Errorf("span %d not marked forced", sp.ID)
		}
		if wire.Status(sp.Status) != wire.StatusOK {
			t.Errorf("span %d status %v", sp.ID, wire.Status(sp.Status))
		}
		if sp.TotalNS() <= 0 {
			t.Errorf("span %d total %d, want > 0", sp.ID, sp.TotalNS())
		}
		if sp.Stamp[telemetry.StageRespond] == 0 {
			t.Errorf("span %d missing respond stamp", sp.ID)
		}
		switch wire.Op(sp.Op) {
		case wire.OpWrite:
			sawWrite = true
			if sp.Volume != 1 || sp.LBA != 3 || sp.Count != 1 {
				t.Errorf("write span fields: %+v", sp)
			}
			// A write waits for the commit slot and passes the timed engine commit.
			if sp.Stamp[telemetry.StageBatch] == 0 || sp.Stamp[telemetry.StageCommit] == 0 {
				t.Errorf("write span missing batch/commit stamps: %v", sp.Stamp)
			}
		case wire.OpRead:
			sawRead = true
			if sp.Stamp[telemetry.StageCommit] == 0 {
				t.Errorf("read span missing commit stamp: %v", sp.Stamp)
			}
		case wire.OpFlush:
			sawFlush = true
		}
		if ex.Cause == "" {
			t.Errorf("span %d unattributed", sp.ID)
		}
	}
	if !sawWrite || !sawRead || !sawFlush {
		t.Errorf("ops seen: write=%v read=%v flush=%v", sawWrite, sawRead, sawFlush)
	}

	// The STAT table carries per-stage percentiles once spans finish.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["trace_respond_count"] < 3 {
		t.Errorf("trace_respond_count = %d, want >= 3", st["trace_respond_count"])
	}
	if st["trace_respond_p50_ns"] <= 0 {
		t.Errorf("trace_respond_p50_ns = %d, want > 0", st["trace_respond_p50_ns"])
	}
}

func TestTraceSnapshotDisabled(t *testing.T) {
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.TraceSnapshot(0, 10); got != nil {
		t.Errorf("TraceSnapshot on untraced server = %v, want nil", got)
	}
}

func TestAttribute(t *testing.T) {
	gc := telemetry.Interval{Kind: telemetry.IntervalGC, ID: 42, Column: -1, Start: 100, End: 200}
	deg := telemetry.Interval{Kind: telemetry.IntervalDegraded, ID: 7, Column: 2, Start: 300, End: 400}
	ivs := []telemetry.Interval{gc, deg}

	span := func(start, end int64, stamps map[telemetry.Stage]int64) *telemetry.Span {
		sp := &telemetry.Span{Start: sim.Time(start)}
		for st, v := range stamps {
			sp.Stamp[st] = sim.Time(v)
		}
		sp.Stamp[telemetry.StageRespond] = sim.Time(end)
		return sp
	}

	// Backpressure beats everything.
	bp := span(100, 200, nil)
	bp.Status = uint8(wire.StatusBackpressure)
	if cause, _, _, _, _ := attribute(bp, ivs); cause != "backpressure" {
		t.Errorf("backpressure cause = %q", cause)
	}

	// GC overlap wins over a degraded window even when the degraded
	// overlap is larger.
	both := span(150, 400, nil)
	cause, id, _, _, ov := attribute(both, ivs)
	if cause != "gc" || id != 42 || ov != 50 {
		t.Errorf("gc-overlap: cause=%q id=%d ov=%d, want gc/42/50", cause, id, ov)
	}

	// Degraded-only overlap reports the interval's kind and column.
	donly := span(350, 450, nil)
	cause, id, col, _, _ := attribute(donly, ivs)
	if cause != "degraded" || id != 7 || col != 2 {
		t.Errorf("degraded: cause=%q id=%d col=%d", cause, id, col)
	}

	// No interference: the dominant stage is blamed.
	cases := []struct {
		stage telemetry.Stage
		want  string
	}{
		{telemetry.StageBatch, "commit-wait"},
		{telemetry.StageAdmission, "admission"},
		{telemetry.StageLockWait, "engine-lock"},
		{telemetry.StageDecode, "wire"},
		{telemetry.StageCommit, "engine"},
	}
	for _, cse := range cases {
		sp := span(1000, 1110, map[telemetry.Stage]int64{cse.stage: 1100})
		if cause, _, _, _, _ := attribute(sp, nil); cause != cse.want {
			t.Errorf("dominant %v: cause = %q, want %q", cse.stage, cause, cse.want)
		}
	}
}

func TestTraceHandler(t *testing.T) {
	srv, c, stop := traceServer(t)
	defer stop()
	if err := c.Write(9, pattern(1, 9, 1)); err != nil {
		t.Fatal(err)
	}
	waitExemplars(t, srv, 1)
	h := srv.TraceHandler()

	do := func(method, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		return rec
	}

	if rec := do(http.MethodPost, "/debug/trace"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", rec.Code)
	}
	for _, bad := range []string{"/debug/trace?k=0", "/debug/trace?k=x", "/debug/trace?min_ns=-1", "/debug/trace?min_ns=x"} {
		if rec := do(http.MethodGet, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, rec.Code)
		}
	}

	rec := do(http.MethodGet, "/debug/trace?k=8")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty trace dump")
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		for _, key := range []string{"id", "op", "status", "total_ns", "cause", "respond_ns"} {
			if _, ok := obj[key]; !ok {
				t.Errorf("line missing %q: %s", key, line)
			}
		}
	}

	// An over-the-top latency floor filters everything out.
	rec = do(http.MethodGet, "/debug/trace?min_ns=999999999999")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "" {
		t.Errorf("high min_ns: status %d body %q", rec.Code, rec.Body.String())
	}

	// A server without tracing 404s.
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	plain, err := New(Config{Engine: eng, Volumes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	plain.TraceHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("untraced handler: status %d, want 404", rec.Code)
	}
}
