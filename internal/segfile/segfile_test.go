package segfile_test

import (
	"errors"
	"testing"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/segfile"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// smallCfg is the crash-harness geometry: 32-byte blocks and 16-block
// segments keep a full syscall-boundary sweep (hundreds of replays of
// the whole workload) in test time while still forcing seals, GC
// reclaims, and cadence checkpoints.
func smallCfg() lss.Config {
	return lss.Config{
		BlockSize:     32,
		ChunkBlocks:   4,
		SegmentChunks: 4,
		UserBlocks:    256,
		OverProvision: 0.25,
	}
}

func newPolicy(cfg lss.Config) lss.Policy {
	return placement.NewSepGC(placement.Params{UserBlocks: cfg.UserBlocks})
}

// driveWorkload runs the deterministic crash-harness workload: an
// initial fill, hot overwrites that force GC, periodic trims, and
// periodic drains (which flush-pad every group and checkpoint). It
// stops at the first latched durable error and reports whether the
// workload ran to completion.
func driveWorkload(t testing.TB, s *lss.Store, ops int) bool {
	t.Helper()
	return drive(t, s, ops, false)
}

// driveServed is driveWorkload on the served schedule: the log commits
// after every op, as a group-commit leader commits it after each ack.
func driveServed(t testing.TB, s *lss.Store, ops int) bool {
	t.Helper()
	return drive(t, s, ops, true)
}

func drive(t testing.TB, s *lss.Store, ops int, commitEach bool) bool {
	t.Helper()
	cfg := s.Config()
	rng := sim.NewRNG(42)
	now := sim.Time(0)
	for op := 0; op < ops; op++ {
		if s.DurableErr() != nil {
			return false
		}
		now += 10 * sim.Microsecond
		var err error
		switch {
		case op%149 == 148:
			s.Drain(now)
		case op%97 == 96:
			err = s.Trim(rng.Int63n(cfg.UserBlocks-8), 8, now)
		default:
			lba := rng.Int63n(cfg.UserBlocks)
			if op%2 == 0 {
				lba = rng.Int63n(cfg.UserBlocks / 8) // hot eighth: churn for GC
			}
			err = s.WriteBlock(lba, now)
		}
		if err != nil {
			if errors.Is(err, segfile.ErrCrashed) {
				return false
			}
			t.Fatalf("op %d: %v", op, err)
		}
		if commitEach {
			s.CommitDurable()
		}
	}
	if s.DurableErr() == nil {
		s.Drain(now + sim.Second)
	}
	return s.DurableErr() == nil
}

const workloadOps = 900

// TestRoundTrip drives a workload against a MemFS-backed store through
// a clean shutdown, recovers twice (with appends in between, so the
// second recovery replays chunks appended onto rolled-forward segments),
// and requires the recovered mapping to equal the in-memory oracle
// each time.
func TestRoundTrip(t *testing.T) {
	cfg := smallCfg()
	mem := segfile.NewMemFS()
	opts := segfile.Options{
		FS:                   mem,
		Sync:                 segfile.SyncAlways,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: 4,
	}

	sf, err := segfile.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if sf.HasData() {
		t.Fatal("fresh MemFS claims recoverable data")
	}
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: sf})
	if !driveWorkload(t, s, workloadOps) {
		t.Fatalf("workload did not complete: %v", s.DurableErr())
	}
	if s.Metrics().SegmentsReclaimed == 0 {
		t.Fatal("workload too light: GC never reclaimed a segment")
	}
	want := checker.ExpectedRecovery(s)
	if err := sf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := sf.Stats(); st.Fsyncs == 0 || st.SyncedSegments == 0 || st.Checkpoints == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}

	sf2, err := segfile.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !sf2.HasData() {
		t.Fatal("reopen found no data")
	}
	rec, stats, err := sf2.Recover(cfg, newPolicy(cfg), lss.Deps{Durable: sf2})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := checker.CompareRecovered(rec, want); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("first recovery invariants: %v", err)
	}
	if stats.Segments == 0 || stats.Blocks == 0 || !stats.CheckpointLoaded {
		t.Fatalf("implausible recovery stats: %+v", stats)
	}
	if stats.TornRecords != 0 || stats.CorruptFiles != 0 {
		t.Fatalf("clean shutdown reported damage: %+v", stats)
	}

	// Keep writing through the recovered store: appends continue onto
	// recovered open segments and new incarnations alike.
	if !driveWorkload(t, rec, workloadOps/2) {
		t.Fatalf("post-recovery workload: %v", rec.DurableErr())
	}
	want2 := checker.ExpectedRecovery(rec)
	if err := sf2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}

	sf3, err := segfile.Open(opts)
	if err != nil {
		t.Fatalf("open 3: %v", err)
	}
	rec2, _, err := sf3.Recover(cfg, newPolicy(cfg))
	if err != nil {
		t.Fatalf("recover 2: %v", err)
	}
	if err := checker.CompareRecovered(rec2, want2); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if err := rec2.CheckInvariants(); err != nil {
		t.Fatalf("second recovery invariants: %v", err)
	}
}

// TestRoundTripDirFS runs the round trip against the real filesystem,
// proving DirFS and MemFS share semantics.
func TestRoundTripDirFS(t *testing.T) {
	cfg := smallCfg()
	opts := segfile.Options{
		Dir:      t.TempDir(),
		Sync:     segfile.SyncOnSeal,
		Geometry: cfg.GeometryDefaults(),
	}
	sf, err := segfile.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: sf})
	if !driveWorkload(t, s, workloadOps) {
		t.Fatalf("workload: %v", s.DurableErr())
	}
	want := checker.ExpectedRecovery(s)
	if err := sf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sf2, err := segfile.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, _, err := sf2.Recover(cfg, newPolicy(cfg))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := checker.CompareRecovered(rec, want); err != nil {
		t.Fatal(err)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerMatchesExpectedRecovery pins the crash oracle to the
// in-memory one: after a fully drained (all chunks flushed) workload,
// the DurableLedger's acked-transition prediction and ExpectedRecovery
// over the live store must be the same mapping, entry for entry.
func TestLedgerMatchesExpectedRecovery(t *testing.T) {
	cfg := smallCfg()
	ledger := checker.NewDurableLedger(nil)
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: ledger})
	if !driveWorkload(t, s, workloadOps) {
		t.Fatalf("workload: %v", s.DurableErr())
	}
	want := checker.ExpectedRecovery(s)
	got := ledger.ExpectedDurable()
	if len(got) != len(want) {
		t.Fatalf("ledger has %d mapped LBAs, store oracle %d", len(got), len(want))
	}
	for lba, w := range want {
		g, ok := got[lba]
		if !ok || g != w {
			t.Fatalf("lba %d: ledger %+v (present=%v), store oracle %+v", lba, g, ok, w)
		}
	}
}

// TestTelemetryRegistered checks the lss_durable_* instruments land on
// a telemetry registry, including the fsync-latency histogram.
func TestTelemetryRegistered(t *testing.T) {
	cfg := smallCfg()
	reg := telemetry.NewRegistry()
	sf, err := segfile.Open(segfile.Options{
		FS:        segfile.NewMemFS(),
		Geometry:  cfg.GeometryDefaults(),
		Telemetry: &telemetry.Set{Registry: reg},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: sf})
	if !driveWorkload(t, s, workloadOps/3) {
		t.Fatalf("workload: %v", s.DurableErr())
	}
	found := make(map[string]bool)
	for _, name := range reg.Names() {
		found[name] = true
	}
	for _, name := range []string{
		telemetry.MetricDurableSyncedSegments,
		telemetry.MetricDurableFsyncs,
		telemetry.MetricDurableBytes,
		telemetry.MetricDurableCheckpoints,
		telemetry.MetricDurableFsyncHistogram,
	} {
		if !found[name] {
			t.Errorf("metric %s not registered", name)
		}
	}
}
