package prototype

import (
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// TestRunFaultRebuildCompletes injects a device failure mid-run and
// checks the full lifecycle: the run enters every phase, the rebuild
// pushes the failed column's chunks through the device queues, and the
// store survives with its invariants clean (Run verifies them after a
// fault run and returns the error). Run under -race this also proves
// the injector's concurrency contract.
func TestRunFaultRebuildCompletes(t *testing.T) {
	// The ring must hold the whole run: chunk-flush traffic would
	// otherwise overwrite the three lifecycle events asserted below.
	ts := telemetry.New(telemetry.Options{
		WindowInterval: sim.Time(time.Millisecond),
		EventCapacity:  1 << 17,
	})
	res, err := Run(Config{
		Engine: EngineConfig{
			Store:       protoStoreConfig(),
			Policy:      protoPolicy(),
			Fill:        true,
			ServiceTime: time.Microsecond,
			QueueDepth:  8,
			Telemetry:   ts,
		},
		Clients:   4,
		Ops:       20000,
		Theta:     0.99,
		ReadRatio: 0.2,
		Seed:      21,
		Fault: FaultConfig{
			FailDevice:      1,
			FailAtOp:        5000,
			RebuildDelayOps: 2000,
			RebuildBurst:    16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDevice != 1 || res.FailedAtOp != 5000 {
		t.Fatalf("failure not recorded: device %d op %d", res.FailedDevice, res.FailedAtOp)
	}
	if res.RebuildChunks == 0 {
		t.Fatal("rebuild moved no chunks")
	}
	entered := map[Phase]PhaseStats{}
	for _, ps := range res.Phases {
		entered[ps.Phase] = ps
	}
	for _, p := range []Phase{PhaseHealthy, PhaseDegraded, PhaseRebuilding, PhaseRebuilt} {
		if _, ok := entered[p]; !ok {
			t.Fatalf("phase %v missing from %v", p, res.Phases)
		}
	}
	if entered[PhaseHealthy].Ops == 0 || entered[PhaseDegraded].Ops == 0 {
		t.Fatalf("no ops attributed to early phases: %+v", res.Phases)
	}
	var ops int64
	for _, ps := range res.Phases {
		ops += ps.Ops
	}
	if ops != 20000 {
		t.Fatalf("phase ops sum to %d, want 20000", ops)
	}
	// Fill + 5000 ops put chunks on every column, so losing one mid-run
	// must both drop writes and reconstruct reads.
	if res.LostChunks == 0 {
		t.Fatal("no writes dropped on the failed column")
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads despite ReadRatio > 0")
	}
	// Chunk conservation through the one send routine: a degraded read
	// costs one job per survivor, a rebuilt chunk one per column; what is
	// left of the devices' job count is the log chunks placed, and every
	// chunk the engine flushed was either placed or lost.
	const ncols = 4
	reads := readBlocks(t, ts)
	readJobs := reads - res.DegradedReads + res.DegradedReads*(ncols-1)
	placed := deviceJobs(ts) - readJobs - res.RebuildChunks*ncols
	if got, want := placed+res.LostChunks, res.ChunksWritten+res.ParityChunks; got != want {
		t.Fatalf("placed %d + lost %d = %d chunks, engine flushed %d + %d parity = %d",
			placed, res.LostChunks, got, res.ChunksWritten, res.ParityChunks, want)
	}
	// The failure lifecycle must be visible in the trace.
	var failed, rstart, rend bool
	for _, e := range ts.Tracer.Events() {
		switch e.Type {
		case telemetry.EvDeviceFailed:
			failed = true
		case telemetry.EvRebuildStart:
			rstart = true
		case telemetry.EvRebuildEnd:
			rend = true
		}
	}
	if !failed || !rstart || !rend {
		t.Fatalf("trace missing lifecycle events: failed=%v start=%v end=%v", failed, rstart, rend)
	}
}

// TestRunFaultMTBF drives the seeded exponential schedule: the same
// seed must fail the same device at the same op, and the run must
// still complete cleanly.
func TestRunFaultMTBF(t *testing.T) {
	run := func() Result {
		res, err := Run(Config{
			Engine: EngineConfig{
				Store:       protoStoreConfig(),
				Policy:      protoPolicy(),
				ServiceTime: time.Microsecond,
				QueueDepth:  8,
			},
			Clients: 2,
			Ops:     10000,
			Theta:   0.9,
			Seed:    5,
			Fault:   FaultConfig{MTBFOps: 4000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FailedDevice < 0 {
		t.Skip("MTBF schedule quiet within horizon for this seed")
	}
	if a.FailedDevice != b.FailedDevice || a.FailedAtOp != b.FailedAtOp {
		t.Fatalf("MTBF failure not deterministic: (%d,%d) vs (%d,%d)",
			a.FailedDevice, a.FailedAtOp, b.FailedDevice, b.FailedAtOp)
	}
	if a.RebuildChunks == 0 {
		t.Fatal("rebuild moved no chunks")
	}
}

// TestRunFaultRejectsBadConfig checks injector validation surfaces as
// errors instead of firing nonsense failures.
func TestRunFaultRejectsBadConfig(t *testing.T) {
	base := func() Config {
		return Config{
			Engine: EngineConfig{
				Store:       protoStoreConfig(),
				Policy:      protoPolicy(),
				ServiceTime: time.Microsecond,
			},
			Clients: 1,
			Ops:     100,
			Seed:    1,
		}
	}
	cfg := base()
	cfg.Fault = FaultConfig{FailDevice: 99, FailAtOp: 10}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range device accepted")
	}
	cfg = base()
	cfg.Fault = FaultConfig{FailDevice: 0, FailAtOp: 1000}
	if _, err := Run(cfg); err == nil {
		t.Fatal("fail op beyond the run accepted")
	}
	cfg = base()
	cfg.Fault = FaultConfig{FailDevice: 0, FailAtOp: 10, RebuildDelayOps: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative rebuild delay accepted")
	}
}

// TestRebuildStepLeavesClock drives the rebuild by hand on a filled
// array whose columns are in debt: a step that must wait for a queue
// leaves the clock where it found it and names the later time it
// resumes at, so Run's loop never moves its clock backward past it.
func TestRebuildStepLeavesClock(t *testing.T) {
	pol := protoPolicy()
	cfg := Config{
		Engine:  EngineConfig{Store: protoStoreConfig(), Policy: pol, Fill: true, ServiceTime: 20 * time.Microsecond, QueueDepth: 4},
		Clients: 1, Ops: 1,
		Fault: FaultConfig{FailDevice: 1, FailAtOp: 1, RebuildBurst: 1 << 20},
	}
	fr, err := newFaultRun(&cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	devs := newDeviceArray(4, cfg.Engine, &clock)
	devs.fault = fr
	eng, err := newSharded(ShardedConfig{
		Engine:        cfg.Engine,
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return pol, nil },
	}, devs)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := eng.shards[0]
	fr.fail(e)
	fr.startRebuild(e)
	waits := 0
	for steps := 0; fr.rebuilding(); steps++ {
		if steps > 1<<20 {
			t.Fatal("the rebuild makes no progress")
		}
		before := clock.Load()
		fr.rebuildStep(e)
		if got := clock.Load(); got != before {
			t.Fatalf("step %d moved the clock %v -> %v", steps, time.Duration(before), time.Duration(got))
		}
		if fr.rebuildAt < time.Duration(before) {
			t.Fatalf("step %d resumes at %v, before its start %v", steps, fr.rebuildAt, time.Duration(before))
		}
		if fr.rebuildAt > time.Duration(before) {
			waits++
		}
		clock.Store(int64(fr.rebuildAt))
	}
	if waits == 0 || fr.rebuilt.Load() != fr.rebuildTotal || fr.phase != PhaseRebuilt {
		t.Fatalf("%d waits, rebuilt %d of %d, phase %v", waits, fr.rebuilt.Load(), fr.rebuildTotal, fr.phase)
	}
}
