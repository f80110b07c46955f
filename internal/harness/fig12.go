package harness

import (
	"fmt"
	"strings"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/workload"
)

// Fig12Options sizes the prototype experiments.
type Fig12Options struct {
	// ClientCounts mirrors the paper's 1/4/8 client sweep.
	ClientCounts []int
	// Blocks is the store size; keep it small relative to Ops so GC
	// competes with user traffic for device bandwidth (the effect the
	// figure demonstrates).
	Blocks int64
	// Ops is the total user writes per run.
	Ops int64
	// ServiceTime is the modelled per-chunk device time; it must be
	// large enough that runs are device-bound, not CPU-bound.
	ServiceTime time.Duration
	// MemoryBlocks are the store sizes for the memory comparison.
	MemoryBlocks []int64
	// MemoryWarmOps populates sampler/ghost state before measuring.
	MemoryWarmOps int64
}

// DefaultFig12Options returns a configuration sized for the given
// scale.
func DefaultFig12Options(sc Scale) Fig12Options {
	return Fig12Options{
		ClientCounts:  []int{1, 4, 8},
		Blocks:        sc.YCSBBlocks,
		Ops:           8 * sc.YCSBBlocks,
		ServiceTime:   50 * time.Microsecond,
		MemoryBlocks:  []int64{sc.YCSBBlocks / 4, sc.YCSBBlocks, sc.YCSBBlocks * 4},
		MemoryWarmOps: sc.YCSBBlocks,
	}
}

// Fig12aRow is one bar of Figure 12a.
type Fig12aRow struct {
	Policy    string
	Clients   int
	OpsPerSec float64
	WA        float64
}

// Fig12bRow is one point of Figure 12b: the memory footprint of
// SepBIT versus ADAPT at one store size.
type Fig12bRow struct {
	Blocks      int64
	SepBITBytes int64
	ADAPTBytes  int64 // shared per-LBA table + sampler + ghosts + discriminators
	OverheadPct float64
}

// Fig12Result holds both panels.
type Fig12Result struct {
	Throughput []Fig12aRow
	Memory     []Fig12bRow
}

// Fig12 runs the prototype throughput sweep (12a) and the memory
// comparison against SepBIT (12b). opts is used as given: start from
// DefaultFig12Options.
func Fig12(sc Scale, policies []string, opts Fig12Options) (*Fig12Result, error) {
	out := &Fig12Result{}
	for _, clients := range opts.ClientCounts {
		for _, polName := range policies {
			res, err := runPrototype(polName, opts.Blocks, opts.ServiceTime, false, prototype.Config{
				Clients: clients,
				Ops:     opts.Ops,
				Theta:   0.99,
				Seed:    sc.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("fig12a %s/%d: %w", polName, clients, err)
			}
			out.Throughput = append(out.Throughput, Fig12aRow{
				Policy: polName, Clients: clients,
				OpsPerSec: res.OpsPerSec, WA: res.WA,
			})
		}
	}

	for _, blocks := range opts.MemoryBlocks {
		cfg := StoreConfig(blocks, 0)
		sepPol, err := BuildPolicy("sepbit", cfg)
		if err != nil {
			return nil, err
		}
		adaptPol, err := BuildPolicy(PolicyADAPT, cfg)
		if err != nil {
			return nil, err
		}
		sep, ap := sepPol.(*placement.SepBIT), adaptPol.(*adaptcore.Policy)
		// Warm both policies with the same zipfian stream so dynamic
		// structures (sampler, ghost sets) carry realistic state.
		rng := sim.NewRNG(sc.Seed)
		z := workload.NewZipf(rng, blocks, 0.99, true)
		for i := int64(0); i < opts.MemoryWarmOps; i++ {
			lba := z.Next()
			sep.PlaceUser(lba, 0, sim.WriteClock(i))
			ap.PlaceUser(lba, 0, sim.WriteClock(i))
		}
		sepBytes := sep.Footprint()
		adaptBytes := ap.BaseFootprint() + ap.Footprint()
		row := Fig12bRow{Blocks: blocks, SepBITBytes: sepBytes, ADAPTBytes: adaptBytes}
		if sepBytes > 0 {
			row.OverheadPct = 100 * float64(adaptBytes-sepBytes) / float64(sepBytes)
		}
		out.Memory = append(out.Memory, row)
	}
	return out, nil
}

// runPrototype runs the prototype (Figure 12a, the fault experiment and
// the gcsched model rows) for one policy: run's clients against a
// pre-filled store of blocks with Pangu's 100 µs SLA window, the
// modelled device taking service per chunk, and GC synchronous or, with
// background, paced by run.GC.
func runPrototype(polName string, blocks int64, service time.Duration, background bool, run prototype.Config) (prototype.Result, error) {
	cfg := StoreConfig(blocks, 0)
	cfg.SLAWindow = 100 * sim.Microsecond
	cfg.BackgroundGC = background
	pol, err := BuildPolicy(polName, cfg)
	if err != nil {
		return prototype.Result{}, err
	}
	run.Engine = prototype.EngineConfig{Store: cfg, Policy: pol, Fill: true, ServiceTime: service, QueueDepth: 8}
	return prototype.Run(run)
}

// Render prints both Figure 12 panels.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12a — prototype throughput (YCSB-A)\n")
	tb := stats.NewTable("clients", "policy", "ops/s", "WA")
	for _, row := range r.Throughput {
		tb.AddRow(row.Clients, row.Policy, row.OpsPerSec, row.WA)
	}
	b.WriteString(tb.String())
	b.WriteString("Figure 12b — memory footprint vs SepBIT\n")
	tb = stats.NewTable("blocks", "sepbit", "adapt", "overhead%")
	for _, row := range r.Memory {
		tb.AddRow(row.Blocks, sim.ByteSize(row.SepBITBytes), sim.ByteSize(row.ADAPTBytes), row.OverheadPct)
	}
	b.WriteString(tb.String())
	return b.String()
}
