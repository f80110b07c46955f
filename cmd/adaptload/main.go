// Command adaptload is a closed-loop multi-tenant load generator for
// adaptserve: one connection per tenant volume, a configurable number
// of pipelined workers per connection, zipfian access over each
// volume's LBA space, and a per-tenant + aggregate report of throughput
// and p50/p99/p999 latency, plus the server's own padding and batching
// counters. The loop is internal/loadgen's.
//
// Usage:
//
//	adaptload -addr 127.0.0.1:9750 -tenants 8 -duration 5s
//	adaptload -write-frac 1 -theta 0.99
package main

import (
	"fmt"
	"os"
	"time"

	"adapt/internal/cli"
	"adapt/internal/loadgen"
	"adapt/internal/server"
	"adapt/internal/stats"
	"adapt/internal/telemetry"
)

func main() {
	cmd := cli.New("adaptload",
		"adaptload -addr 127.0.0.1:9750 -tenants 8 -duration 5s",
		"adaptload -write-frac 1 -theta 0.99")
	var cfg loadgen.Config
	fs := cmd.Flags()
	addr := fs.String("addr", "127.0.0.1:9750", "adaptserve address")
	tenants := fs.Int("tenants", 8, "tenant volumes to load (volume IDs 0..n-1)")
	fs.IntVar(&cfg.Workers, "workers", 8, "pipelined closed-loop workers per tenant")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "load duration")
	fs.Float64Var(&cfg.WriteFrac, "write-frac", 0.7, "fraction of ops that are writes")
	fs.Float64Var(&cfg.Theta, "theta", 0.99, "zipfian skew over each volume's LBA space")
	blocksPerOp := fs.Int("blocks-per-op", 1, "blocks per request")
	fs.IntVar(&cfg.FlushEvery, "flush-every", 0, "issue a FLUSH every n ops per worker (0 disables)")
	traceEvery := fs.Int("trace-every", 0, "opt every nth request into server-side exemplar capture (0 disables)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	cmd.Parse(os.Args[1:])

	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	if *tenants < 1 || cfg.Workers < 1 || *blocksPerOp < 1 {
		cmd.UsageErrorf("-tenants, -workers, and -blocks-per-op must be positive")
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac > 1 {
		cmd.UsageErrorf("-write-frac must be in [0,1], got %g", cfg.WriteFrac)
	}

	// Geometry handshake: one STAT round-trip sizes payloads and LBA
	// ranges; a tenant count beyond the served volumes is a user error.
	// The probe stays open for the closing STAT.
	probe, err := server.Dial(*addr, 0)
	cmd.Check(err)
	geom, err := probe.Stats()
	cmd.Check(err)
	blockBytes := int(geom["geom_block_bytes"])
	if int64(*tenants) > geom["geom_volumes"] {
		cmd.UsageErrorf("-tenants %d exceeds the server's %d volumes", *tenants, geom["geom_volumes"])
	}
	if int64(*blocksPerOp) > geom["geom_vol_blocks"] {
		cmd.UsageErrorf("-blocks-per-op %d exceeds the %d-block volumes", *blocksPerOp, geom["geom_vol_blocks"])
	}
	cfg.Size, cfg.Align, cfg.OpBytes = geom["geom_vol_blocks"]*int64(blockBytes), int64(blockBytes), *blocksPerOp*blockBytes
	for t := 0; t < *tenants; t++ {
		c, err := server.Dial(*addr, uint32(t))
		cmd.Check(err)
		c.SetBlockBytes(blockBytes)
		c.SetTraceEvery(*traceEvery)
		cfg.Conns = append(cfg.Conns, loadgen.Wire{C: c, BlockBytes: blockBytes})
	}

	fmt.Printf("loading %d tenants × %d workers for %v (%.0f%% writes, θ=%.2f, %d×%dB blocks/op)\n",
		*tenants, cfg.Workers, cfg.Duration, 100*cfg.WriteFrac, cfg.Theta, *blocksPerOp, blockBytes)
	res, err := loadgen.Run(cfg)
	cmd.Check(err)
	el := res.Elapsed.Seconds()
	var failed error
	for t := 0; t < *tenants; t++ {
		s := loadgen.Summarize(res.Workers[t*cfg.Workers : (t+1)*cfg.Workers])
		if failed == nil && s.Err != nil {
			failed = fmt.Errorf("tenant %d %w", t, s.Err)
		}
		fmt.Printf("tenant %d: %7d ops (%d w, %d r) %9.1f ops/s  %s  retries %d\n",
			t, len(s.All), len(s.ByKind[loadgen.Write]), len(s.ByKind[loadgen.Read]),
			float64(len(s.All))/el, loadgen.Tail(s.All), s.Retries)
	}
	s := loadgen.Summarize(res.Workers)
	fmt.Printf("aggregate: %d ops in %v — %.1f ops/s (%.1f writes/s, %.1f reads/s)  %s  retries %d\n",
		len(s.All), res.Elapsed.Round(time.Millisecond), float64(len(s.All))/el,
		float64(len(s.ByKind[loadgen.Write]))/el, float64(len(s.ByKind[loadgen.Read]))/el, loadgen.Tail(s.All), s.Retries)
	for _, k := range []loadgen.Kind{loadgen.Write, loadgen.Read, loadgen.Flush} {
		if lat := s.ByKind[k]; len(lat) > 0 {
			fmt.Printf("%-5s: %8d ops  %s\n", k, len(lat), loadgen.Tail(lat))
		}
	}

	// A worker that died on an op error fails the run, after the report
	// of what the others measured.
	cmd.Check(failed)

	final, err := probe.Stats()
	cmd.Check(err)
	printStageTable(final)
	fmt.Printf("server: %d group commits covering %d writes, %d backpressure rejections, %d/%d chunks padded, WA %.3f (effective %.3f)\n",
		final["srv_batches"], final["srv_batched_writes"], final["srv_backpressure"],
		final["store_padded_chunks"], final["store_chunk_flushes"],
		float64(final["store_wa_milli"])/1000, float64(final["store_eff_wa_milli"])/1000)
}

// printStageTable renders the server-side per-stage latency breakdown
// when the STAT payload carries tracing percentiles (server started
// with tracing enabled): trace_<stage>_{count,p50_ns,p99_ns,p999_ns}.
func printStageTable(st map[string]int64) {
	tbl := stats.NewTable("stage", "count", "p50", "p99", "p999")
	rows := 0
	for stage := telemetry.Stage(0); stage < telemetry.NumStages; stage++ {
		s := stage.String()
		n := st["trace_"+s+"_count"]
		if n == 0 {
			continue
		}
		rows++
		tbl.AddRow(s, fmt.Sprintf("%d", n),
			fmtNS(st["trace_"+s+"_p50_ns"]),
			fmtNS(st["trace_"+s+"_p99_ns"]),
			fmtNS(st["trace_"+s+"_p999_ns"]))
	}
	if rows > 0 {
		fmt.Println("server stage latency (histogram upper bounds):")
		fmt.Print(tbl.String())
	}
}

// fmtNS renders a nanosecond value with a readable unit.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
