package gcsched

import (
	"sync"
	"testing"
	"time"
)

// fakeShard scripts one GC domain: fixed urgency, a countdown of
// pending work, and a record of the budgets it was handed.
type fakeShard struct {
	mu      sync.Mutex
	urgency float64
	pending int
	budgets []int
}

func (f *fakeShard) GCNeeded() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending > 0
}

func (f *fakeShard) GCUrgency() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.urgency
}

func (f *fakeShard) GCStep(budget int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budgets = append(f.budgets, budget)
	f.pending -= budget
	return f.pending <= 0
}

func TestTickPicksNeediestShard(t *testing.T) {
	calm := &fakeShard{urgency: 0.2, pending: 100}
	needy := &fakeShard{urgency: 0.9, pending: 100}
	idle := &fakeShard{urgency: 0, pending: 0}
	c, err := New(Config{SliceUnits: 10}, []Shard{calm, needy, idle})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Tick() {
		t.Fatal("tick with needy shards bought nothing")
	}
	if len(needy.budgets) == 0 || len(calm.budgets) != 0 {
		t.Fatalf("wrong shard scheduled: needy=%v calm=%v", needy.budgets, calm.budgets)
	}
	// Budget scales with urgency (10 × 0.9 = 9), bought as micro-slices
	// of at most 8 units each.
	if got := sum(needy.budgets); got != 9 {
		t.Fatalf("tick budget %d (%v), want 9", got, needy.budgets)
	}
	for _, b := range needy.budgets {
		if b > 8 {
			t.Fatalf("micro-slice %d exceeds the 8-unit lock-hold bound", b)
		}
	}
	st := c.Stats()
	if st.Slices != int64(len(needy.budgets)) || st.Units != 9 {
		t.Fatalf("stats %+v, want %d slices of 9 total units", st, len(needy.budgets))
	}
}

func TestTickIdleWhenNothingNeeded(t *testing.T) {
	c, err := New(Config{}, []Shard{&fakeShard{}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Tick() {
		t.Fatal("idle tick bought a slice")
	}
	if st := c.Stats(); st.IdleTicks != 1 || st.Slices != 0 {
		t.Fatalf("stats %+v, want one idle tick", st)
	}
}

func TestBackoffSignalsDeferNonUrgentSlices(t *testing.T) {
	sh := &fakeShard{urgency: 0.3, pending: 1000} // below the veto band

	tail := time.Duration(0)
	fill := 0.0
	c, err := New(Config{
		SliceUnits: 8,
		TargetP999: time.Millisecond,
		P999:       func() time.Duration { return tail },
		QueueFill:  func() float64 { return fill },
	}, []Shard{sh})
	if err != nil {
		t.Fatal(err)
	}
	tail = 2 * time.Millisecond // tail over target: defer
	if c.Tick() {
		t.Fatal("slice ran despite tail over target")
	}
	tail = 0
	fill = 0.9 // queue over threshold: defer
	if c.Tick() {
		t.Fatal("slice ran despite full queue")
	}
	fill = 0.1
	if !c.Tick() {
		t.Fatal("healthy signals still deferred the slice")
	}
	st := c.Stats()
	if st.TailSkips != 1 || st.QueueSkips != 1 || st.Slices != 1 {
		t.Fatalf("stats %+v, want 1 tail skip, 1 queue skip, 1 slice", st)
	}
}

func TestUrgencyBypassesBackoff(t *testing.T) {
	// Past the veto band (vetoUrgency, 0.5) the backoff signals lose their
	// vote: half the watermark cushion spent is already too close to an
	// emergency cycle to keep deferring.
	for _, urgency := range []float64{0.5, 1.5} {
		sh := &fakeShard{urgency: urgency, pending: 1000}
		c, err := New(Config{
			SliceUnits: 8,
			TargetP999: time.Millisecond,
			P999:       func() time.Duration { return time.Hour },
			QueueFill:  func() float64 { return 1.0 },
		}, []Shard{sh})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Tick() {
			t.Fatalf("shard at urgency %v deferred by backoff signals", urgency)
		}
		want := int(8 * urgency)
		if got := sum(sh.budgets); got != want {
			t.Fatalf("urgency %v: tick budget %d (%v), want %d", urgency, got, sh.budgets, want)
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func TestBudgetScaleClamps(t *testing.T) {
	low := &fakeShard{urgency: 0.01, pending: 1000}
	c, err := New(Config{SliceUnits: 100}, []Shard{low})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if got := sum(low.budgets); got != 25 { // clamped to SliceUnits/4
		t.Fatalf("low-urgency budget %d, want 25", got)
	}
	high := &fakeShard{urgency: 50, pending: 10000}
	c2, err := New(Config{SliceUnits: 100}, []Shard{high})
	if err != nil {
		t.Fatal(err)
	}
	c2.Tick()
	if got := sum(high.budgets); got != 400 { // clamped to 4×SliceUnits
		t.Fatalf("high-urgency budget %d, want 400", got)
	}
	for _, b := range high.budgets {
		if b > 8 {
			t.Fatalf("micro-slice %d exceeds the 8-unit lock-hold bound", b)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Interval: -time.Second},
		{SliceUnits: -1},
		{TargetP999: -time.Second},
		{TargetP999: time.Second}, // no P999 source
	}
	for i, cfg := range cases {
		if _, err := New(cfg, []Shard{&fakeShard{}}); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, cfg)
		}
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("controller with no shards accepted")
	}
}

func TestStartStopDrainsPendingWork(t *testing.T) {
	sh := &fakeShard{urgency: 2, pending: 500}
	c, err := New(Config{Interval: 100 * time.Microsecond, SliceUnits: 32}, []Shard{sh})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for sh.GCNeeded() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if sh.GCNeeded() {
		t.Fatal("pacer goroutine never drained the pending work")
	}
	if st := c.Stats(); st.Slices == 0 {
		t.Fatalf("stats %+v, want slices > 0", st)
	}
}

func TestStopWithoutStart(t *testing.T) {
	c, err := New(Config{}, []Shard{&fakeShard{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop() // must not hang or panic
}
