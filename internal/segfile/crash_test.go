package segfile_test

import (
	"bytes"
	"errors"
	"io/fs"
	"slices"
	"testing"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// reuseLog sits between the store and the ledger and counts how many
// OpenSegment calls reused an id a FreeSegment had released — the
// region-reuse path the sweeps must cover. It embeds the ledger
// itself, so the store sees the ledger's Commit.
type reuseLog struct {
	*checker.DurableLedger
	freed    map[int]bool
	reopened int
}

func (r *reuseLog) OpenSegment(id int, group lss.GroupID, born sim.WriteClock) error {
	if r.freed[id] {
		r.reopened++
	}
	return r.DurableLedger.OpenSegment(id, group, born)
}

func (r *reuseLog) FreeSegment(id int) error {
	r.freed[id] = true
	return r.DurableLedger.FreeSegment(id)
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
	return replayOn(t, cfg, mode, budget, driveWorkload, nil)
}

// replayOn is replayToCrash with the workload driver chosen and the
// CrashFS optionally wrapped (wrap nil: used as is).
func replayOn(t *testing.T, cfg lss.Config, mode segfile.SyncMode, budget int,
	drive func(testing.TB, *lss.Store, int) bool, wrap func(*segfile.CrashFS) segfile.FS) crashRun {
	t.Helper()
	crash := segfile.NewCrashFS(segfile.NewMemFS(), budget)
	var fsys segfile.FS = crash
	if wrap != nil {
		fsys = wrap(crash)
	}
	opts := segfile.Options{
		FS:                   fsys,
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
	reuse := &reuseLog{DurableLedger: ledger, freed: make(map[int]bool)}
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: reuse})
	completed := drive(t, s, workloadOps)
	if !completed && !errors.Is(s.DurableErr(), segfile.ErrCrashed) {
		t.Fatalf("budget %d: latched %v, want ErrCrashed", budget, s.DurableErr())
	}
	return crashRun{crash: crash, ledger: ledger, reopened: reuse.reopened, completed: completed}
}

// countingRun replays the workload without a crash and checks the
// sweep is worth running: enough syscall boundaries, and segment ids
// freed and reopened inside it, so region reuse is swept.
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

// opLog wraps a CrashFS and records the kind of every syscall, one
// entry per CrashFS step, so log[k-1] names the call a budget of k
// kills.
type opLog struct {
	segfile.FS
	ops *[]string
}

func (o opLog) OpenFile(name string, flag int, perm fs.FileMode) (segfile.File, error) {
	*o.ops = append(*o.ops, "open")
	f, err := o.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return opFile{File: f, ops: o.ops}, nil
}

func (o opLog) ReadDir() ([]string, error) {
	*o.ops = append(*o.ops, "readdir")
	return o.FS.ReadDir()
}

func (o opLog) SyncDir() error {
	*o.ops = append(*o.ops, "syncdir")
	return o.FS.SyncDir()
}

type opFile struct {
	segfile.File
	ops *[]string
}

func (f opFile) WriteAt(p []byte, off int64) (int, error) {
	*f.ops = append(*f.ops, writeKind(p))
	return f.File.WriteAt(p, off)
}

// writeKind names what a write to the log carries: a checkpoint slot,
// a region header, a seal record, the zeroes of a free, or chunk
// records ("write").
func writeKind(p []byte) string {
	switch {
	case !slices.ContainsFunc(p, func(b byte) bool { return b != 0 }):
		return "zero"
	case bytes.HasPrefix(p, []byte("ADPTCKF2")):
		return "slot"
	case bytes.HasPrefix(p, []byte("ADPTSEG2")):
		return "header"
	case len(p) > 4 && p[4] == 2:
		return "seal"
	}
	return "write"
}

func (f opFile) ReadAt(p []byte, off int64) (int, error) {
	*f.ops = append(*f.ops, "read")
	return f.File.ReadAt(p, off)
}

func (f opFile) Truncate(size int64) error {
	*f.ops = append(*f.ops, "truncate")
	return f.File.Truncate(size)
}

func (f opFile) Sync() error {
	*f.ops = append(*f.ops, "sync")
	return f.File.Sync()
}

func (f opFile) Close() error {
	*f.ops = append(*f.ops, "close")
	return f.File.Close()
}

func (f opFile) Size() (int64, error) {
	*f.ops = append(*f.ops, "size")
	return f.File.Size()
}

// TestCrashSweepCommitInterleaving sweeps every syscall boundary of the
// served schedule — the log commits after each op, as the group-commit
// leader commits it after each ack — so the crash lands inside commits:
// between a commit's checkpoint slot and its sync, between its sync and
// the first victim's zeroing, between victims, and before the sync
// that makes the frees durable. Under SyncAlways recovery must match
// the ledger exactly. Under SyncOnSeal it must lie between the
// ledger's bounds: nothing unacked or newer than acked, and nothing
// below the floor a freeing commit proved synced — a victim zeroed
// before its relocated blocks were synced fails there.
func TestCrashSweepCommitInterleaving(t *testing.T) {
	cfg := smallCfg()
	for _, mode := range []segfile.SyncMode{segfile.SyncAlways, segfile.SyncOnSeal} {
		t.Run(mode.String(), func(t *testing.T) {
			var ops []string
			run := replayOn(t, cfg, mode, -1, driveServed, func(c *segfile.CrashFS) segfile.FS {
				return opLog{FS: c, ops: &ops}
			})
			if !run.completed || run.reopened == 0 {
				t.Fatalf("counting run: completed %v, %d reopens of a freed id", run.completed, run.reopened)
			}
			n := run.crash.Calls()
			if len(ops) != n {
				t.Fatalf("op log holds %d calls, CrashFS counted %d", len(ops), n)
			}
			// The cuts the sweep must take: a commit's first zeroing
			// write, right after the sync that covered the victims'
			// relocations. Budget k kills call k, so the image holds
			// calls 1..k-1.
			var cuts []int
			for k := 2; k <= n; k++ {
				if ops[k-1] == "zero" && ops[k-2] == "sync" {
					cuts = append(cuts, k)
				}
			}
			if len(cuts) < 5 {
				t.Fatalf("only %d commits zero a victim right after their first sync; the schedule does not reach the cut", len(cuts))
			}
			t.Logf("%d syscalls, %d sync→zero cuts, %d reopens", n, len(cuts), run.reopened)

			budgets := cuts
			if !testing.Short() {
				budgets = budgets[:0:0]
				for k := 1; k <= n; k++ {
					budgets = append(budgets, k)
				}
			}
			for _, k := range budgets {
				run := replayOn(t, cfg, mode, k, driveServed, nil)
				if run.completed || !run.crash.Crashed() {
					t.Fatalf("budget %d of %d: completed %v, crashed %v", k, n, run.completed, run.crash.Crashed())
				}
				rec := recoverImage(t, cfg, run.crash)
				if err := rec.CheckInvariants(); err != nil {
					t.Fatalf("crash at syscall %d (%s) of %d: recovered invariants: %v", k, ops[k-1], n, err)
				}
				if mode == segfile.SyncAlways {
					if err := checker.CompareRecovered(rec, run.ledger.ExpectedDurable()); err != nil {
						t.Fatalf("crash at syscall %d (%s) of %d: %v", k, ops[k-1], n, err)
					}
					continue
				}
				got := checker.ExpectedRecovery(rec)
				acked := run.ledger.ExpectedDurable()
				for lba, loc := range got {
					if best, ok := acked[lba]; !ok || loc.Version > best.Version {
						t.Fatalf("crash at syscall %d (%s): recovered lba %d version %d, acked %v", k, ops[k-1], lba, loc.Version, best)
					}
				}
				for lba, floor := range run.ledger.DurableFloor() {
					if loc, ok := got[lba]; !ok || loc.Version < floor.Version {
						t.Fatalf("crash at syscall %d (%s): lba %d recovered (%v, version %d) below the synced floor %d",
							k, ops[k-1], lba, ok, loc.Version, floor.Version)
					}
				}
			}
		})
	}
}
