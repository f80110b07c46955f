package prototype

import (
	"math"
	"reflect"
	"testing"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
)

func protoStoreConfig() lss.Config {
	return lss.Config{
		BlockSize:     4096,
		ChunkBlocks:   8,
		SegmentChunks: 8,
		DataColumns:   3,
		UserBlocks:    8 << 10,
		OverProvision: 0.2,
		SLAWindow:     100 * sim.Microsecond,
	}
}

func protoPolicy() lss.Policy {
	return placement.NewSepGC(placement.Params{UserBlocks: 8 << 10})
}

func TestRunCompletesAllOps(t *testing.T) {
	res, err := Run(Config{
		Engine: EngineConfig{
			Store:       protoStoreConfig(),
			Policy:      protoPolicy(),
			ServiceTime: time.Microsecond,
			QueueDepth:  8,
		},
		Clients: 4,
		Ops:     20000,
		Theta:   0.99,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 {
		t.Fatal("zero throughput")
	}
	if res.WA < 1 {
		t.Fatalf("WA %f < 1", res.WA)
	}
	if res.ChunksWritten == 0 {
		t.Fatal("no chunks reached the devices")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero clients", Config{Clients: 0, Ops: 10}},
		{"zero ops", Config{Clients: 1, Ops: 0}},
		{"negative read ratio", Config{Clients: 1, Ops: 10, ReadRatio: -0.1}},
		{"read ratio above 1", Config{Clients: 1, Ops: 10, ReadRatio: 1.5}},
		{"NaN read ratio", Config{Clients: 1, Ops: 10, ReadRatio: math.NaN()}},
		{"negative think time", Config{Clients: 1, Ops: 10, Think: -time.Microsecond}},
		{"caller queue fill", Config{Clients: 1, Ops: 10, GC: gcsched.Config{QueueFill: func() float64 { return 0 }}}},
		{"caller p999", Config{Clients: 1, Ops: 10, GC: gcsched.Config{P999: func() time.Duration { return 0 }}}},
	} {
		tc.cfg.Engine = EngineConfig{Store: protoStoreConfig(), Policy: protoPolicy()}
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestRunDeterministic runs each Config twice: on Run's virtual clock
// the two Results must be identical, the elapsed time and every phase's
// P99 included — healthy, with the fault injector armed, and with
// background GC paced by the gcsched pacer, with and without think time
// (back-to-back clients always wait for the lock, and the pacer must
// still run).
func TestRunDeterministic(t *testing.T) {
	background := protoStoreConfig()
	background.BackgroundGC = true
	for _, tc := range []struct {
		name  string
		store lss.Config
		think time.Duration
		fault FaultConfig
	}{
		{name: "healthy", store: protoStoreConfig()},
		{name: "fault", store: protoStoreConfig(), fault: FaultConfig{
			FailDevice: 2, FailAtOp: 4000, RebuildDelayOps: 1000}},
		{name: "background GC", store: background, think: 5 * time.Microsecond},
		{name: "background GC, no think", store: background},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() Result {
				res, err := Run(Config{
					Engine: EngineConfig{
						Store:       tc.store,
						Policy:      protoPolicy(),
						Fill:        true,
						ServiceTime: 20 * time.Microsecond,
						QueueDepth:  4,
					},
					Clients:   4,
					Ops:       12000,
					Theta:     0.99,
					ReadRatio: 0.2,
					Think:     tc.think,
					Seed:      9,
					GC:        gcsched.Config{Interval: 20 * time.Microsecond, TargetP999: time.Millisecond},
					Fault:     tc.fault,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
			}
			if a.Elapsed <= 0 || a.P999 <= 0 {
				t.Fatalf("vacuous run: %+v", a)
			}
			if tc.fault.Enabled() && len(a.Phases) != int(numPhases) {
				t.Fatalf("fault run entered %d phases, want %d: %+v", len(a.Phases), numPhases, a.Phases)
			}
			if tc.store.BackgroundGC && (a.Pacer.Slices == 0 || a.Measured.GCSlices == 0) {
				t.Fatalf("the pacer bought no slice: %+v", a)
			}
			if a.Measured.GCEmergencyRuns > 2 {
				t.Fatalf("%d emergency GC runs: the pacer fell behind", a.Measured.GCEmergencyRuns)
			}
		})
	}
}

// TestRunGCShare pins Run's GC attribution. In a filled synchronous run
// part of the clock is GC holds and the tail overlaps them, and more ops
// overlap a GC hold than ran one: the clients waiting behind a cycle
// count too. In a run whose GC never starts (no fill, few ops on an
// empty store) all three fractions are zero.
func TestRunGCShare(t *testing.T) {
	run := func(fill bool, ops int64) Result {
		res, err := Run(Config{
			Engine: EngineConfig{
				Store:       protoStoreConfig(),
				Policy:      protoPolicy(),
				Fill:        fill,
				ServiceTime: 20 * time.Microsecond,
				QueueDepth:  4,
			},
			Clients: 4,
			Ops:     ops,
			Theta:   0.99,
			Seed:    5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const ops = 12000
	res := run(true, ops)
	gc := res.GC
	if !(gc.Busy > 0 && gc.Busy < 1) || !(gc.Tail > 0 && gc.Tail <= 1) || !(gc.All > 0 && gc.All <= 1) {
		t.Fatalf("filled run: GC share %+v outside (0,1)", gc)
	}
	if res.Measured.GCCycles == 0 || gc.All*ops <= float64(res.Measured.GCCycles) {
		t.Fatalf("%.0f ops overlapped GC in %d cycles: the ops that waited behind a cycle are not counted",
			gc.All*ops, res.Measured.GCCycles)
	}
	if idle := run(false, 100); idle.Measured.GCCycles != 0 || idle.GC != (GCShare{}) {
		t.Fatalf("run without GC: %d cycles, GC share %+v", idle.Measured.GCCycles, idle.GC)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// With a large service time the device model must throttle
	// throughput: chunks = ops/chunkBlocks (plus GC), each costing
	// ServiceTime spread over 3 data columns.
	svc := 200 * time.Microsecond
	const ops = 6000
	res, err := Run(Config{
		Engine: EngineConfig{
			Store:       protoStoreConfig(),
			Policy:      protoPolicy(),
			ServiceTime: svc,
			QueueDepth:  4,
		},
		Clients: 4,
		Ops:     ops,
		Theta:   0.5,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound on elapsed: data chunks spread over data columns. The
	// clock is virtual, so the bound is exact.
	minChunks := res.ChunksWritten / 3
	minElapsed := time.Duration(minChunks) * svc
	if res.Elapsed < minElapsed {
		t.Fatalf("elapsed %v beat the bandwidth model floor %v", res.Elapsed, minElapsed)
	}
}

func TestMoreClientsDoNotLoseOps(t *testing.T) {
	for _, clients := range []int{1, 2, 8} {
		res, err := Run(Config{
			Engine: EngineConfig{
				Store:       protoStoreConfig(),
				Policy:      protoPolicy(),
				ServiceTime: time.Microsecond,
				QueueDepth:  8,
			},
			Clients: clients,
			Ops:     5000,
			Theta:   0.9,
			Seed:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OpsPerSec <= 0 {
			t.Fatalf("%d clients: no throughput", clients)
		}
	}
}

func TestFootprintHelper(t *testing.T) {
	p := protoPolicy()
	if Footprint(p) != 0 {
		t.Fatal("sepgc should report zero footprint")
	}
	sb := placement.NewSepBIT(placement.Params{UserBlocks: 1024, SegmentBlocks: 64, ChunkBlocks: 8})
	if Footprint(sb) != 1024*8 {
		t.Fatalf("sepbit footprint = %d", Footprint(sb))
	}
}
