package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/sim"
	"adapt/internal/workload"
)

// ShardScaleOptions sizes the shard-scaling experiment: a fixed fleet
// of writer goroutines hammers the sharded engine at each shard count
// so the throughput curve isolates engine-lock contention from device
// time (the modelled device is made essentially free).
type ShardScaleOptions struct {
	// Shards lists the shard counts to sweep.
	Shards []int
	// Workers is the concurrent writer goroutine count.
	Workers int
	// OpsPerWorker is single-block writes issued by each worker.
	OpsPerWorker int
	// UserBlocks sizes the array.
	UserBlocks int64
}

// DefaultShardScaleOptions derives experiment sizing from the scale.
func DefaultShardScaleOptions(sc Scale) ShardScaleOptions {
	return ShardScaleOptions{
		Shards:       []int{1, 2, 4},
		Workers:      8,
		OpsPerWorker: int(sc.YCSBWrites) / 8,
		UserBlocks:   sc.YCSBBlocks,
	}
}

// ShardScaleRow is the measured throughput at one shard count.
type ShardScaleRow struct {
	Shards    int
	Ops       int64
	Elapsed   time.Duration
	OpsPerSec float64
	// Speedup is OpsPerSec relative to the first (1-shard) row.
	Speedup float64
	// GateWaits counts GC cycles that blocked on the cross-shard
	// scheduler token; GateWaitNS is the total time they waited.
	GateWaits  int64
	GateWaitNS int64
	WA         float64
}

// ShardScaleResult holds the sweep.
type ShardScaleResult struct {
	Workers int
	Rows    []ShardScaleRow
}

// Render prints a paper-style table.
func (r ShardScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — shard scaling (%d writers, zipfian 0.99)\n", r.Workers)
	fmt.Fprintf(&b, "%8s %12s %12s %10s %8s %10s %8s\n",
		"shards", "ops", "elapsed", "ops/s", "speedup", "gate-waits", "WA")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12d %12v %10.0f %7.2fx %10d %8.3f\n",
			row.Shards, row.Ops, row.Elapsed.Round(time.Millisecond),
			row.OpsPerSec, row.Speedup, row.GateWaits, row.WA)
	}
	return b.String()
}

// ExpShardScale sweeps the sharded engine across shard counts under a
// fixed concurrent writer fleet. Unlike the figure experiments this
// measures wall-clock throughput, so results depend on the host's
// core count; the qualitative claim is that throughput grows with
// shards until it hits the core budget. opt is used as given: start
// from DefaultShardScaleOptions.
func ExpShardScale(sc Scale, opt ShardScaleOptions) (ShardScaleResult, error) {
	res := ShardScaleResult{Workers: opt.Workers}
	cfg := StoreConfig(opt.UserBlocks, lss.Greedy)
	for _, shards := range opt.Shards {
		eng, err := prototype.NewSharded(prototype.ShardedConfig{
			Engine: prototype.EngineConfig{
				Store: cfg,
				// Keep the modelled device out of the way so the sweep
				// measures engine-lock and group-commit contention.
				ServiceTime: time.Microsecond,
			},
			Shards: shards,
			PolicyFactory: func(shard int, scfg lss.Config) (lss.Policy, error) {
				return BuildPolicy(PolicyADAPT, scfg)
			},
		})
		if err != nil {
			return ShardScaleResult{}, err
		}
		var wg sync.WaitGroup
		errs := make([]error, opt.Workers)
		start := time.Now()
		for w := 0; w < opt.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := sim.NewRNG(sc.Seed*1_000_003 + uint64(w))
				z := workload.NewZipf(rng, opt.UserBlocks, 0.99, true)
				for i := 0; i < opt.OpsPerWorker; i++ {
					if _, err := eng.WriteTimed(z.Next(), 1); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := eng.Stats()
		if err := eng.Close(); err != nil {
			return ShardScaleResult{}, err
		}
		for _, err := range errs {
			if err != nil {
				return ShardScaleResult{}, err
			}
		}
		ops := int64(opt.Workers) * int64(opt.OpsPerWorker)
		row := ShardScaleRow{
			Shards:     shards,
			Ops:        ops,
			Elapsed:    elapsed,
			OpsPerSec:  float64(ops) / elapsed.Seconds(),
			GateWaits:  st.GCGateWaits,
			GateWaitNS: st.GCGateWaitNS,
			WA:         st.WA,
		}
		if len(res.Rows) == 0 {
			row.Speedup = 1
		} else {
			row.Speedup = row.OpsPerSec / res.Rows[0].OpsPerSec
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
