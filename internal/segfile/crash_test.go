package segfile_test

import (
	"errors"
	"testing"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// reuseLog sits between the store and the ledger and counts how many
// OpenSegment calls reused an id a FreeSegment had released — the
// recycled-file path the sweeps must cover.
type reuseLog struct {
	lss.DurableLog
	freed    map[int]bool
	reopened int
}

func (r *reuseLog) OpenSegment(id int, group lss.GroupID, born sim.WriteClock) error {
	if r.freed[id] {
		r.reopened++
	}
	return r.DurableLog.OpenSegment(id, group, born)
}

func (r *reuseLog) FreeSegment(id int) error {
	r.freed[id] = true
	return r.DurableLog.FreeSegment(id)
}

// crashRun is one replay of the deterministic workload against a
// CrashFS: the filesystem, the acked-transition oracle, how many
// OpenSegment calls reused a freed id, and whether the workload ran to
// completion.
type crashRun struct {
	crash     *segfile.CrashFS
	ledger    *checker.DurableLedger
	reopened  int
	completed bool
}

// replayToCrash drives the deterministic workload under the given sync
// discipline against a CrashFS with the given syscall budget. Budget
// < 0 never crashes (the counting run).
func replayToCrash(t *testing.T, cfg lss.Config, mode segfile.SyncMode, budget int) crashRun {
	t.Helper()
	crash := segfile.NewCrashFS(segfile.NewMemFS(), budget)
	opts := segfile.Options{
		FS:                   crash,
		Sync:                 mode,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: 4,
	}
	sf, err := segfile.Open(opts)
	if err != nil {
		// The crash point landed inside Open itself (the directory
		// scan); nothing was ever acked.
		if !errors.Is(err, segfile.ErrCrashed) {
			t.Fatalf("budget %d: open: %v", budget, err)
		}
		return crashRun{crash: crash, ledger: checker.NewDurableLedger(nil)}
	}
	ledger := checker.NewDurableLedger(sf)
	reuse := &reuseLog{DurableLog: ledger, freed: make(map[int]bool)}
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: reuse})
	completed := driveWorkload(t, s, workloadOps)
	if !completed && !errors.Is(s.DurableErr(), segfile.ErrCrashed) {
		t.Fatalf("budget %d: latched %v, want ErrCrashed", budget, s.DurableErr())
	}
	return crashRun{crash: crash, ledger: ledger, reopened: reuse.reopened, completed: completed}
}

// countingRun replays the workload without a crash and checks the
// sweep is worth running: enough syscall boundaries, and segment ids
// freed and reopened inside it, so the recycled-file path is swept.
func countingRun(t *testing.T, cfg lss.Config, mode segfile.SyncMode) int {
	t.Helper()
	run := replayToCrash(t, cfg, mode, -1)
	if !run.completed {
		t.Fatal("counting run did not complete")
	}
	n := run.crash.Calls()
	if n < 300 {
		t.Fatalf("workload issued only %d syscalls; harness coverage too thin", n)
	}
	if run.reopened == 0 {
		t.Fatal("workload never reopened a freed segment id; recycling is outside the sweep")
	}
	t.Logf("%d syscalls, %d reopens of a freed id", n, run.reopened)
	return n
}

// recoverImage opens the post-crash durable image and rolls it forward
// into a live store (a fresh store when the image is empty).
func recoverImage(t *testing.T, cfg lss.Config, crash *segfile.CrashFS) *lss.Store {
	t.Helper()
	opts := segfile.Options{
		FS:       crash.Image(),
		Sync:     segfile.SyncAlways,
		Geometry: cfg.GeometryDefaults(),
	}
	sf, err := segfile.Open(opts)
	if err != nil {
		t.Fatalf("post-crash open: %v", err)
	}
	if !sf.HasData() {
		return lss.New(cfg, newPolicy(cfg))
	}
	rec, _, err := sf.Recover(cfg, newPolicy(cfg))
	if err != nil {
		t.Fatalf("post-crash recover: %v", err)
	}
	return rec
}

// TestCrashPointSweep is the exhaustive crash harness: it counts every
// filesystem syscall the workload issues under the sync-per-append
// discipline, then replays the workload once per syscall boundary,
// killing the filesystem at exactly that call. For every crash point,
// recovery from the durable image must (a) succeed, (b) produce
// exactly the mapping the acked-transition oracle predicts — no lost
// acks, no resurrected frees — and (c) pass the store invariants.
func TestCrashPointSweep(t *testing.T) {
	cfg := smallCfg()

	n := countingRun(t, cfg, segfile.SyncAlways)

	stride := 1
	if testing.Short() {
		stride = 17
	}
	for k := 1; k <= n; k += stride {
		run := replayToCrash(t, cfg, segfile.SyncAlways, k)
		if run.completed {
			t.Fatalf("budget %d of %d: workload completed without crashing", k, n)
		}
		if !run.crash.Crashed() {
			t.Fatalf("budget %d: crash point never reached", k)
		}
		rec := recoverImage(t, cfg, run.crash)
		if err := checker.CompareRecovered(rec, run.ledger.ExpectedDurable()); err != nil {
			t.Fatalf("crash at syscall %d of %d: %v", k, n, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("crash at syscall %d of %d: recovered invariants: %v", k, n, err)
		}
	}
}

// TestCrashSweepRelaxedSync sweeps crash points under SyncOnSeal,
// where acknowledged appends may legally be lost. The exactness oracle
// does not apply; instead recovery must stay safe: it succeeds, passes
// invariants, and never surfaces data that was not acked or a version
// newer than the acked one (nothing fabricated, nothing resurrected
// past a durable free).
func TestCrashSweepRelaxedSync(t *testing.T) {
	cfg := smallCfg()

	n := countingRun(t, cfg, segfile.SyncOnSeal)
	stride := 7
	if testing.Short() {
		stride = 41
	}
	for k := 1; k <= n; k += stride {
		run := replayToCrash(t, cfg, segfile.SyncOnSeal, k)
		rec := recoverImage(t, cfg, run.crash)
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("crash at syscall %d of %d: recovered invariants: %v", k, n, err)
		}
		acked := run.ledger.ExpectedDurable()
		for lba, loc := range checker.ExpectedRecovery(rec) {
			best, ok := acked[lba]
			if !ok {
				t.Fatalf("crash at syscall %d: recovered lba %d that was never acked", k, lba)
			}
			if loc.Version > best.Version {
				t.Fatalf("crash at syscall %d: recovered lba %d version %d beyond acked %d",
					k, lba, loc.Version, best.Version)
			}
		}
	}
}
