// Package prototype is the concurrent counterpart of the trace-driven
// simulator, mirroring the paper's prototype experiments (§4.4):
// client goroutines (Run) or network servers (through Ingest) drive one
// engine, Sharded, whose log-structured stores dispatch every chunk
// flush to a bandwidth-modelled SSD in a RAID-5 layout (rotating
// parity) through bounded per-device queues, so GC and padding traffic
// compete with user writes for device time exactly as on the real
// array. Device service is modelled with a virtual-time throttle rather
// than per-operation sleeps, keeping the benchmark fast while
// preserving the bandwidth ceiling.
package prototype

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
)

// Config describes one prototype run: the engine to stand up and the
// client fleet to drive it with.
type Config struct {
	// Engine is the engine under test — store geometry, policy, device
	// model, Fill (every block written sequentially before the measured
	// phase, so updates run at full utilization with GC active, as the
	// paper's prototype does after loading) and Telemetry (the engine's
	// per-device and {shard="0"} store metrics, plus the policy's own and
	// the injector's counters; the Set must be dedicated to this run).
	Engine EngineConfig
	// Clients is the number of client goroutines.
	Clients int
	// Ops is the total number of 4 KiB user operations across clients.
	Ops int64
	// Theta is the zipfian skew of the update stream (YCSB-A: 0.99).
	Theta float64
	// ReadRatio interleaves reads at this fraction of operations
	// (YCSB-A: 0.5). Reads consume device time on a random column,
	// competing with writes.
	ReadRatio float64
	// Seed drives the zipfian streams.
	Seed uint64
	// GCSliceUnits is the per-operation background-GC budget when
	// Engine.Store.BackgroundGC is set (default 32): each client op
	// donates one bounded GCStep slice, so collection overlaps the run
	// instead of stalling single writes for whole cycles. Ignored without
	// BackgroundGC.
	GCSliceUnits int
	// Fault arms the fault injector: a device failure mid-run, degraded
	// reads, throttled GC, and a bandwidth-stealing rebuild. The zero
	// value keeps the run healthy.
	Fault FaultConfig
}

// Result summarizes a prototype run.
type Result struct {
	OpsPerSec     float64
	Elapsed       time.Duration
	WA            float64
	EffectiveWA   float64
	PaddingRatio  float64
	ChunksWritten int64
	ParityChunks  int64

	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64

	// Fault-run accounting; FailedDevice is -1 when the run stayed
	// healthy and Phases is nil unless the injector was armed.
	FailedDevice  int
	FailedAtOp    int64
	DegradedReads int64
	RebuildChunks int64
	LostChunks    int64
	QueueRetries  int64
	Phases        []PhaseStats
}

// Run executes the prototype experiment: it builds the one-shard
// engine, drives it with the client fleet, and closes it. What is Run's
// own is the shared op counter, the zipfian clients, and the phase and
// latency accounting of a fault run.
func Run(cfg Config) (Result, error) {
	if cfg.Clients < 1 {
		return Result{}, fmt.Errorf("prototype: need at least one client")
	}
	if cfg.Ops < 1 {
		return Result{}, fmt.Errorf("prototype: need at least one op")
	}
	geo := cfg.Engine.Store.GeometryDefaults()
	fr, err := newFaultRun(&cfg, geo.DataColumns+1)
	if err != nil {
		return Result{}, err
	}
	pol := cfg.Engine.Policy
	fr.registerTelemetry(cfg.Engine.Telemetry)
	eng, err := newSharded(ShardedConfig{
		Engine:        cfg.Engine,
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return pol, nil },
	}, fr)
	if err != nil {
		return Result{}, err
	}
	shard := eng.shards[0]
	if p, ok := pol.(interface{ SetTelemetry(*telemetry.Set) }); ok && shard.tel != nil {
		// One shard, one policy: its fixed instrument names cannot
		// collide, so Run wires what a multi-shard engine cannot — under
		// the shard's lock, since the policy's gauges read its state.
		p.SetTelemetry(shard.tel)
	}
	gc := eng.GCShards()[0]
	bgStep := 0
	if geo.BackgroundGC {
		bgStep = cfg.GCSliceUnits
		if bgStep <= 0 {
			bgStep = 32
		}
	}

	measureStart := time.Now()
	if fr != nil {
		shard.mu.Lock()
		fr.enterPhaseLocked(shard, PhaseHealthy)
		shard.mu.Unlock()
	}

	var issued atomic.Int64
	var clientWG sync.WaitGroup
	clientErrs := make([]error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			rng := sim.NewRNG(cfg.Seed + uint64(c)*7919)
			z := workload.NewZipf(rng, geo.UserBlocks, cfg.Theta, true)
			var latNS [numPhases][]float64
			var phaseOps [numPhases]int64
			for {
				op := issued.Add(1)
				if op > cfg.Ops {
					break
				}
				if fr != nil && op == fr.failOp {
					fr.fail(shard)
				}
				if fr != nil && fr.claimRebuild(op, false) {
					fr.rebuild(shard)
				}
				lba := z.Next()
				var p Phase
				var t0 time.Time
				if fr != nil {
					p = Phase(fr.phase.Load())
					t0 = time.Now()
				}
				var err error
				if cfg.ReadRatio > 0 && rng.Float64() < cfg.ReadRatio {
					_, err = eng.ReadTimed(lba, 1)
				} else {
					_, err = eng.WriteTimed(lba, 1)
				}
				if err != nil {
					clientErrs[c] = err
					issued.Add(cfg.Ops) // stop the rest of the fleet
					break
				}
				if bgStep > 0 {
					gc.GCStep(bgStep)
				}
				if fr != nil {
					latNS[p] = append(latNS[p], float64(time.Since(t0)))
					phaseOps[p]++
				}
			}
			if fr != nil {
				fr.collect(latNS, phaseOps)
			}
		}(c)
	}
	clientWG.Wait()
	if fr != nil && fr.claimRebuild(0, true) {
		fr.rebuild(shard)
	}
	measureEnd := time.Now() // phase accounting stops before the drain
	for bgStep > 0 && !gc.GCStep(1<<30) {
		// settle in-flight GC before the drain
	}
	// Close drains the open chunks and waits for the device queues to
	// empty, so the elapsed time pays for every chunk the run produced.
	err = eng.Close()
	elapsed := time.Since(measureStart)
	for _, cerr := range clientErrs {
		if cerr != nil {
			return Result{}, cerr
		}
	}

	st := eng.Stats()
	res := Result{
		Elapsed:       elapsed,
		WA:            st.WA,
		EffectiveWA:   st.EffectiveWA,
		PaddingRatio:  st.PaddingRatio,
		ChunksWritten: st.ChunkFlushes,
		ParityChunks:  st.ParityChunks,
		UserBlocks:    st.UserBlocks,
		GCBlocks:      st.GCBlocks,
		ShadowBlocks:  st.ShadowBlocks,
		PaddingBlocks: st.PaddingBlocks,
		FailedDevice:  -1,
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(cfg.Ops) / elapsed.Seconds()
	}
	if fr != nil {
		fr.finish(&res, measureEnd, trafficSnap{user: st.UserBlocks, gc: st.GCBlocks})
	}
	return res, err
}

// FootprintReporter is implemented by policies that can report their
// metadata memory cost.
type FootprintReporter interface {
	Footprint() int64
}

// Footprint returns a policy's reported metadata bytes, or 0 if the
// policy does not report one.
func Footprint(p lss.Policy) int64 {
	if f, ok := p.(FootprintReporter); ok {
		return f.Footprint()
	}
	return 0
}
