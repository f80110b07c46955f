package adapt

import (
	"time"

	"adapt/internal/prototype"
)

// FaultConfig arms the prototype's fault injector: one device of the
// RAID-5 array fails mid-run, reads of it are served by XOR
// reconstruction fan-out, GC runs throttled while the rebuild lags its
// watermark, and the rebuild streams the lost column back through the
// same bounded device queues as user traffic. The zero value keeps the
// run healthy.
type FaultConfig struct {
	// FailDevice is the array column (0-based, parity included) to fail
	// when FailAtOp is set.
	FailDevice int
	// FailAtOp fires the failure at this user-op count (first op = 1).
	FailAtOp int64
	// MTBFOps, when positive, replaces the fixed plan with a seeded
	// exponential failure schedule with this mean, in ops.
	MTBFOps int64
	// RebuildDelayOps delays the rebuild start by this many further
	// user ops after the failure.
	RebuildDelayOps int64
	// RebuildBurst is chunks per rebuild dispatch round (default 8).
	RebuildBurst int
	// QueueTimeout bounds one device-queue send attempt before it
	// counts as a retry (default 2ms).
	QueueTimeout time.Duration
	// RetryMax is the number of timed-out attempts before the final
	// blocking send (default 5); operations are never dropped.
	RetryMax int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between retries (defaults 50µs / 5ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DegradedGCWatermark is the rebuild-progress fraction below which
	// the store runs throttled degraded-mode GC (default 0.5).
	DegradedGCWatermark float64
}

func (f FaultConfig) internal() prototype.FaultConfig {
	return prototype.FaultConfig{
		FailDevice:          f.FailDevice,
		FailAtOp:            f.FailAtOp,
		MTBFOps:             f.MTBFOps,
		RebuildDelayOps:     f.RebuildDelayOps,
		RebuildBurst:        f.RebuildBurst,
		QueueTimeout:        f.QueueTimeout,
		RetryMax:            f.RetryMax,
		BackoffBase:         f.BackoffBase,
		BackoffCap:          f.BackoffCap,
		DegradedGCWatermark: f.DegradedGCWatermark,
	}
}

// PrototypeConfig describes a prototype run (§4.4): closed-loop clients
// issue zipfian 4 KiB writes against a shared store whose chunk flushes
// are dispatched to bandwidth-modelled SSDs through bounded queues. The
// clients are one event loop on a virtual clock: each op holds the
// engine lock for a fixed cost plus the device-queue waits and GC
// relocation reads it caused, so a run's numbers are exact per seed.
// With GCSched.Background the gcsched pacer drives GC on that clock.
type PrototypeConfig struct {
	// Simulator is the store geometry and policy (Victim selects GC).
	Simulator SimulatorConfig
	// Clients is the number of closed-loop clients (paper: 1, 4, 8).
	Clients int
	// Ops is the total number of user block writes.
	Ops int64
	// Theta is the zipfian skew (YCSB-A: 0.99).
	Theta float64
	// Fill writes every block sequentially before the measured phase,
	// so updates run at full utilization with GC active.
	Fill bool
	// ReadRatio interleaves reads at this fraction of operations, in
	// [0, 1] (YCSB-A: 0.5); reads consume device bandwidth. A value
	// outside that range is an error.
	ReadRatio float64
	// ServiceTime is the modelled device time per 64 KiB chunk
	// (default 50 µs ≈ 1.3 GB/s per SSD).
	ServiceTime time.Duration
	// QueueDepth bounds each device queue (paper: I/O depth 8).
	QueueDepth int
	// Seed drives the client streams.
	Seed uint64
	// Fault arms the fault injector; the zero value stays healthy.
	Fault FaultConfig
}

// PhaseResult summarizes one phase of a fault run (healthy, degraded,
// rebuilding, rebuilt).
type PhaseResult struct {
	Phase     string
	Ops       int64
	Elapsed   time.Duration
	OpsPerSec float64
	WA        float64
	P99       time.Duration
}

// PrototypeResult summarizes a prototype run. The fault fields are
// populated only when FaultConfig armed the injector and the failure
// fired; FailedDevice is -1 otherwise.
type PrototypeResult struct {
	OpsPerSec float64
	// Elapsed is modelled time, from the first measured op until the
	// devices have worked off every chunk the run sent.
	Elapsed       time.Duration
	WA            float64
	PaddingRatio  float64
	ChunksWritten int64

	FailedDevice  int
	FailedAtOp    int64
	DegradedReads int64
	RebuildChunks int64
	LostChunks    int64
	QueueRetries  int64
	Phases        []PhaseResult
}

// RunPrototype executes a prototype experiment. An invalid
// configuration, ReadRatio outside [0, 1] included, is an error.
func RunPrototype(c PrototypeConfig) (PrototypeResult, error) {
	cfg, pol, err := c.Simulator.build()
	if err != nil {
		return PrototypeResult{}, err
	}
	pcfg := prototype.Config{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			Policy:      pol,
			Fill:        c.Fill,
			ServiceTime: c.ServiceTime,
			QueueDepth:  c.QueueDepth,
		},
		Clients:   c.Clients,
		Ops:       c.Ops,
		Theta:     c.Theta,
		ReadRatio: c.ReadRatio,
		Seed:      c.Seed,
		Fault:     c.Fault.internal(),
	}
	if c.Simulator.GCSched.Background {
		pcfg.GC.SliceUnits = c.Simulator.GCSched.sliceUnits()
	}
	res, err := prototype.Run(pcfg)
	if err != nil {
		return PrototypeResult{}, err
	}
	out := PrototypeResult{
		OpsPerSec:     res.OpsPerSec,
		Elapsed:       res.Elapsed,
		WA:            res.WA,
		PaddingRatio:  res.PaddingRatio,
		ChunksWritten: res.ChunksWritten,
		FailedDevice:  res.FailedDevice,
		FailedAtOp:    res.FailedAtOp,
		DegradedReads: res.DegradedReads,
		RebuildChunks: res.RebuildChunks,
		LostChunks:    res.LostChunks,
		QueueRetries:  res.QueueRetries,
	}
	for _, ps := range res.Phases {
		out.Phases = append(out.Phases, PhaseResult{
			Phase:     ps.Phase.String(),
			Ops:       ps.Ops,
			Elapsed:   ps.Elapsed,
			OpsPerSec: ps.OpsPerSec,
			WA:        ps.WA,
			P99:       ps.P99,
		})
	}
	return out, nil
}

// PolicyFootprintBytes reports the metadata memory cost of a policy at
// the given store size after warming it with ops zipfian writes —
// the Figure 12b comparison. The untyped policy-name constants assign
// to Policy directly; runtime strings go through ParsePolicy first.
func PolicyFootprintBytes(policy Policy, userBlocks, warmOps int64) (int64, error) {
	s, err := NewSimulator(SimulatorConfig{UserBlocks: userBlocks, Policy: string(policy)})
	if err != nil {
		return 0, err
	}
	tr := GenerateYCSB(YCSBConfig{Blocks: userBlocks, Writes: warmOps, Theta: 0.99, Seed: 1})
	if err := s.Replay(tr); err != nil {
		return 0, err
	}
	if d, ok := s.Diagnostics(); ok {
		return d.BaseTableBytes + d.FootprintBytes, nil
	}
	return prototype.Footprint(s.policy), nil
}
