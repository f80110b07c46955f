package telemetry

import (
	"sync"
	"testing"

	"adapt/internal/sim"
)

func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.MarkAt(StageCommit, 10) // must not panic
	if sp.End() != 0 || sp.TotalNS() != 0 {
		t.Errorf("nil span End=%d TotalNS=%d, want 0,0", sp.End(), sp.TotalNS())
	}
	if d := sp.StageDurs(); d != ([NumStages]int64{}) {
		t.Errorf("nil span StageDurs = %v, want zeros", d)
	}
	var ring *SpanRing
	ring.Publish(&Span{})
	if ring.Published() != 0 {
		t.Error("nil ring Published != 0")
	}
	if got := ring.Snapshot(nil); got != nil {
		t.Errorf("nil ring Snapshot = %v, want nil", got)
	}
}

func TestSpanStageDurs(t *testing.T) {
	sp := &Span{Start: 100}
	sp.MarkAt(StageDecode, 110)
	// Admission and Batch skipped (e.g. a read).
	sp.MarkAt(StageLockWait, 150)
	sp.MarkAt(StageCommit, 180)
	sp.MarkAt(StageRespond, 200)

	durs := sp.StageDurs()
	want := [NumStages]int64{
		StageDecode:   10,
		StageLockWait: 40, // since decode's stamp, skipping the zeros
		StageCommit:   30,
		StageRespond:  20,
	}
	if durs != want {
		t.Errorf("StageDurs = %v, want %v", durs, want)
	}
	if sp.End() != 200 {
		t.Errorf("End = %d, want 200", sp.End())
	}
	if sp.TotalNS() != 100 {
		t.Errorf("TotalNS = %d, want 100", sp.TotalNS())
	}

	sp.Reset()
	if sp.TotalNS() != 0 || sp.Stamp[StageCommit] != 0 {
		t.Error("Reset left state behind")
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"decode", "admission", "batch", "lockwait", "commit", "respond"}
	if len(want) != int(NumStages) {
		t.Fatalf("%d stages, want %d", NumStages, len(want))
	}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), want[st])
		}
	}
}

func TestSpanRingWrapAndSnapshot(t *testing.T) {
	r := NewSpanRing(4)
	for i := 1; i <= 6; i++ {
		r.Publish(&Span{ID: uint64(i)})
	}
	if r.Published() != 6 {
		t.Fatalf("Published = %d, want 6", r.Published())
	}
	got := r.Snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(got))
	}
	// IDs 1 and 2 were overwritten; 3..6 remain, oldest first.
	for i, sp := range got {
		if want := uint64(i + 3); sp.ID != want {
			t.Errorf("slot %d: ID = %d, want %d", i, sp.ID, want)
		}
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Publish(&Span{ID: uint64(g*1000 + i), Start: 1})
			}
		}(g)
	}
	// Concurrent snapshots must not race or crash.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, sp := range r.Snapshot(nil) {
				if sp.Start != 1 {
					t.Error("observed partially published span")
					return
				}
			}
		}
	}()
	wg.Wait()
	if r.Published() != 8000 {
		t.Errorf("Published = %d, want 8000", r.Published())
	}
}

func TestLog2Bounds(t *testing.T) {
	got := Log2Bounds(1024, 8192)
	want := []int64{1024, 2048, 4096, 8192}
	if len(got) != len(want) {
		t.Fatalf("Log2Bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Log2Bounds = %v, want %v", got, want)
		}
	}
	if b := Log2Bounds(0, 4); b[0] != 1 {
		t.Errorf("lo clamped: got %v", b)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("q_test", "", []int64{10, 100, 1000})
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram Quantile != 0")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram Quantile != 0")
	}
	// 90 observations in the first bucket, 9 in the second, 1 overflow.
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(5000)
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	// The overflow observation reports the last finite bound.
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
}

func TestIntervalOverlap(t *testing.T) {
	iv := Interval{Start: 100, End: 200}
	cases := []struct {
		a, b sim.Time
		want int64
	}{
		{0, 50, 0},     // before
		{250, 300, 0},  // after
		{0, 150, 50},   // tail of [a,b] overlaps head of iv
		{150, 300, 50}, // head of [a,b] overlaps tail of iv
		{120, 180, 60}, // inside
		{0, 300, 100},  // containing
	}
	for _, c := range cases {
		if got := iv.Overlap(c.a, c.b); got != c.want {
			t.Errorf("Overlap(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	open := Interval{Start: 100} // End == 0: still open
	if got := open.Overlap(150, 300); got != 150 {
		t.Errorf("open Overlap = %d, want 150", got)
	}
}

func TestIntervalLog(t *testing.T) {
	var nilLog *IntervalLog
	nilLog.Add(Interval{})
	nilLog.Close(nilLog.Open(IntervalGC, 1, -1, -1, 0), 10)
	if nilLog.Snapshot() != nil || nilLog.Total() != 0 {
		t.Error("nil IntervalLog not inert")
	}

	l := NewIntervalLog(3)
	l.Add(Interval{Kind: IntervalGC, ID: 1, Start: 10, End: 20})
	tok := l.Open(IntervalDegraded, 7, 2, -1, 30)
	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2 (1 closed + 1 open)", len(snap))
	}
	if snap[1].Kind != IntervalDegraded || snap[1].End != 0 {
		t.Errorf("open interval = %+v", snap[1])
	}
	l.Close(tok, 40)
	l.Close(tok, 50)  // double close ignored
	l.Close(9999, 50) // unknown token ignored
	if got := l.Total(); got != 2 {
		t.Errorf("Total = %d, want 2", got)
	}
	// Overflow the 3-slot ring: oldest closed interval evicted.
	l.Add(Interval{Kind: IntervalGC, ID: 2, Start: 50, End: 60})
	l.Add(Interval{Kind: IntervalGC, ID: 3, Start: 60, End: 70})
	snap = l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	if snap[0].Kind != IntervalDegraded {
		t.Errorf("oldest retained = %+v, want the degraded interval", snap[0])
	}
	if snap[2].ID != 3 {
		t.Errorf("newest = %+v, want GC cycle 3", snap[2])
	}
}

func TestIntervalKindString(t *testing.T) {
	for k, want := range map[IntervalKind]string{
		IntervalGC: "gc", IntervalDegraded: "degraded", 99: "interval",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
