// Command adaptsim replays a block I/O trace (or a synthesized
// workload) through the log-structured store simulator under a chosen
// placement policy and prints the traffic accounting.
//
// Usage:
//
//	adaptsim -policy adapt -victim greedy -trace vol0.csv -format msr
//	adaptsim -policy sepbit -ycsb-blocks 65536 -ycsb-writes 500000
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"adapt"
	"adapt/internal/cli"
)

func main() {
	cmd := cli.New("adaptsim",
		"adaptsim -policy adapt -victim greedy -trace vol0.csv -format msr",
		"adaptsim -policy sepbit -ycsb-blocks 65536 -ycsb-writes 500000")
	fs := cmd.Flags()
	policy := fs.String("policy", adapt.PolicyADAPT, "placement policy: "+strings.Join(adapt.Policies(), "|"))
	victim := fs.String("victim", adapt.VictimGreedy, "GC victim policy: greedy|cost-benefit|d-choices")
	tracePath := fs.String("trace", "", "trace file to replay (empty: synthesize YCSB)")
	format := fs.String("format", "bin", "trace format: msr|ali|tencent|bin")
	chunkKiB := fs.Int("chunk-kib", 64, "array chunk size in KiB")
	slaUS := fs.Int("sla-us", 100, "chunk coalescing window in microseconds")
	op := fs.Float64("op", 0.15, "over-provisioning fraction")
	ycsbBlocks := fs.Int64("ycsb-blocks", 64<<10, "synthetic workload: block count")
	ycsbWrites := fs.Int64("ycsb-writes", 512<<10, "synthetic workload: write count")
	theta := fs.Float64("theta", 0.99, "synthetic workload: zipfian constant")
	gapUS := fs.Int64("gap-us", 50, "synthetic workload: mean interarrival in microseconds")
	seed := fs.Uint64("seed", 1, "random seed")
	cmd.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	if _, err := adapt.ParsePolicy(*policy); err != nil {
		cmd.UsageErrorf("%v", err)
	}
	if _, err := adapt.ParseVictim(*victim); err != nil {
		cmd.UsageErrorf("%v", err)
	}

	var tr *adapt.Trace
	var blocks int64
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		cmd.Check(err)
		defer f.Close()
		var perr error
		switch *format {
		case "msr":
			tr, perr = adapt.ParseMSR(f, *tracePath)
		case "ali":
			tr, perr = adapt.ParseAli(f, *tracePath)
		case "tencent":
			tr, perr = adapt.ParseTencent(f, *tracePath)
		case "bin":
			tr, perr = adapt.ReadBinaryTrace(f)
		default:
			cmd.UsageErrorf("unknown trace format %q", *format)
		}
		cmd.Check(perr)
		tr, blocks = tr.Densify(4096)
		if blocks == 0 {
			cmd.Fatalf("trace %s contains no blocks", *tracePath)
		}
	} else {
		blocks = *ycsbBlocks
		tr = adapt.GenerateYCSB(adapt.YCSBConfig{
			Blocks:  blocks,
			Writes:  *ycsbWrites,
			Fill:    true,
			Theta:   *theta,
			MeanGap: time.Duration(*gapUS) * time.Microsecond,
			Seed:    *seed,
		})
	}

	sim, err := adapt.NewSimulator(adapt.SimulatorConfig{
		UserBlocks:    blocks,
		Policy:        *policy,
		Victim:        *victim,
		ChunkBlocks:   *chunkKiB * 1024 / 4096,
		OverProvision: *op,
		SLAWindow:     time.Duration(*slaUS) * time.Microsecond,
	})
	cmd.Check(err)

	start := time.Now()
	cmd.Check(sim.Replay(tr))
	elapsed := time.Since(start)

	st := tr.Stats(4096)
	m := sim.Metrics()
	fmt.Printf("trace: %s (%d requests, %d writes, %.1f req/s avg)\n",
		tr.Name, st.Requests, st.Writes, st.ReqPerSec)
	fmt.Printf("policy: %s  victim: %s  blocks: %d  replay time: %v\n",
		sim.PolicyName(), *victim, blocks, elapsed.Round(time.Millisecond))
	fmt.Printf("WA: %.3f  effective WA: %.3f  padding ratio: %.2f%%\n",
		m.WA, m.EffectiveWA, 100*m.PaddingRatio)
	fmt.Printf("user: %d  gc: %d  shadow: %d  padding: %d blocks\n",
		m.UserBlocks, m.GCBlocks, m.ShadowBlocks, m.PaddingBlocks)
	fmt.Printf("chunks: %d data, %d parity  segments reclaimed: %d (%d GC cycles)\n",
		m.DataChunks, m.ParityChunks, m.SegmentsReclaimed, m.GCCycles)
	fmt.Println("\nper-group traffic:")
	for _, g := range m.PerGroup {
		total := g.UserBlocks + g.GCBlocks + g.ShadowBlocks + g.PaddingBlocks
		if total == 0 {
			continue
		}
		fmt.Printf("  group %d: user %d  gc %d  shadow %d  padding %d  segments %d\n",
			g.Group, g.UserBlocks, g.GCBlocks, g.ShadowBlocks, g.PaddingBlocks, g.SealedSegments)
	}
	if d, ok := sim.Diagnostics(); ok {
		fmt.Printf("\nADAPT diagnostics: threshold %.0f blocks, %d adoptions, %d demotions, %d shadow grants\n",
			d.Threshold, d.Adoptions, d.Demotions, d.ShadowGrants)
	}
}
