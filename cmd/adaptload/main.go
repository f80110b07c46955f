// Command adaptload is a closed-loop multi-tenant load generator for
// adaptserve: one connection per tenant volume, a configurable number
// of pipelined workers per connection, zipfian access over each
// volume's LBA space (reusing the internal/workload generator), and a
// per-tenant + aggregate report of throughput and p50/p99/p999
// latency, plus the server's own padding and batching counters.
//
// Usage:
//
//	adaptload -addr 127.0.0.1:9750 -tenants 8 -duration 5s
//	adaptload -write-frac 1 -sync -theta 0.99
package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"adapt/internal/cli"
	"adapt/internal/fault"
	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/workload"
)

type tenantResult struct {
	ops, writes, reads, flushes int64
	retries                     int64
	latencies                   []float64 // all ops, microseconds
	// Per-class latency samples (microseconds), so write, read, and
	// flush percentiles report separately.
	wlat, rlat, flat []float64
	// err is the op error that stopped this worker early, nil for one
	// that ran to the deadline.
	err error
}

func main() {
	cmd := cli.New("adaptload",
		"adaptload -addr 127.0.0.1:9750 -tenants 8 -duration 5s",
		"adaptload -write-frac 1 -sync -theta 0.99")
	fs := cmd.Flags()
	addr := fs.String("addr", "127.0.0.1:9750", "adaptserve address")
	tenants := fs.Int("tenants", 8, "tenant volumes to load (volume IDs 0..n-1)")
	workers := fs.Int("workers", 8, "pipelined closed-loop workers per tenant")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	writeFrac := fs.Float64("write-frac", 0.7, "fraction of ops that are writes")
	theta := fs.Float64("theta", 0.99, "zipfian skew over each volume's LBA space")
	blocksPerOp := fs.Int("blocks-per-op", 1, "blocks per request")
	syncWrites := fs.Bool("sync", false, "bypass server-side batching (FlagNoBatch)")
	flushEvery := fs.Int("flush-every", 0, "issue a FLUSH every n ops per worker (0 disables)")
	traceEvery := fs.Int("trace-every", 0, "opt every nth request into server-side exemplar capture (0 disables)")
	seed := fs.Uint64("seed", 1, "random seed")
	cmd.Parse(os.Args[1:])

	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	if *tenants < 1 || *workers < 1 || *blocksPerOp < 1 {
		cmd.UsageErrorf("-tenants, -workers, and -blocks-per-op must be positive")
	}
	if *writeFrac < 0 || *writeFrac > 1 {
		cmd.UsageErrorf("-write-frac must be in [0,1], got %g", *writeFrac)
	}

	// Geometry handshake: one STAT round-trip sizes payloads and LBA
	// ranges; a tenant count beyond the served volumes is a user error.
	probe, err := server.Dial(*addr, 0)
	cmd.Check(err)
	geom, err := probe.Stats()
	cmd.Check(err)
	probe.Close()
	blockBytes := int(geom["geom_block_bytes"])
	volBlocks := geom["geom_vol_blocks"]
	if int64(*tenants) > geom["geom_volumes"] {
		cmd.UsageErrorf("-tenants %d exceeds the server's %d volumes", *tenants, geom["geom_volumes"])
	}
	span := volBlocks - int64(*blocksPerOp) + 1
	if span < 1 {
		cmd.UsageErrorf("-blocks-per-op %d exceeds the %d-block volumes", *blocksPerOp, volBlocks)
	}

	clients := make([]*server.Client, *tenants)
	for t := range clients {
		c, err := server.Dial(*addr, uint32(t))
		cmd.Check(err)
		c.SetBlockBytes(blockBytes)
		c.SetTraceEvery(*traceEvery)
		defer c.Close()
		clients[t] = c
	}

	fmt.Printf("loading %d tenants × %d workers for %v (%.0f%% writes, θ=%.2f, %d×%dB blocks/op, sync=%v)\n",
		*tenants, *workers, *duration, 100**writeFrac, *theta, *blocksPerOp, blockBytes, *syncWrites)

	results := make([][]tenantResult, *tenants)
	begin := time.Now()
	deadline := begin.Add(*duration)
	var wg sync.WaitGroup
	for t := 0; t < *tenants; t++ {
		results[t] = make([]tenantResult, *workers)
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(c *server.Client, res *tenantResult, wseed uint64) {
				defer wg.Done()
				rng := sim.NewRNG(wseed)
				zipf := workload.NewZipf(rng, span, *theta, true)
				payload := make([]byte, *blocksPerOp*blockBytes)
				for i := range payload {
					payload[i] = byte(rng.Intn(256))
				}
				bo := fault.Backoff{}
				for time.Now().Before(deadline) {
					lba := zipf.Next()
					start := time.Now()
					var err error
					write := rng.Float64() < *writeFrac
					flush := *flushEvery > 0 && res.ops > 0 && res.ops%int64(*flushEvery) == 0
					for attempt := 0; ; attempt++ {
						if flush {
							err = c.Flush()
						} else if write {
							if *syncWrites {
								err = c.WriteSync(lba, payload)
							} else {
								err = c.Write(lba, payload)
							}
						} else {
							_, err = c.Read(lba, *blocksPerOp)
						}
						if !errors.Is(err, server.ErrBackpressure) {
							break
						}
						res.retries++
						time.Sleep(bo.Delay(attempt))
					}
					if err != nil {
						res.err = err
						return
					}
					us := float64(time.Since(start).Microseconds())
					res.latencies = append(res.latencies, us)
					res.ops++
					switch {
					case flush:
						res.flushes++
						res.flat = append(res.flat, us)
					case write:
						res.writes++
						res.wlat = append(res.wlat, us)
					default:
						res.reads++
						res.rlat = append(res.rlat, us)
					}
				}
			}(clients[t], &results[t][w], *seed+uint64(t*1000+w))
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)

	var total tenantResult
	for t := 0; t < *tenants; t++ {
		var tr tenantResult
		for w := range results[t] {
			r := &results[t][w]
			tr.ops += r.ops
			tr.writes += r.writes
			tr.reads += r.reads
			tr.flushes += r.flushes
			tr.retries += r.retries
			if total.err == nil && r.err != nil {
				total.err = fmt.Errorf("tenant %d worker %d: %w", t, w, r.err)
			}
			tr.latencies = append(tr.latencies, r.latencies...)
			tr.wlat = append(tr.wlat, r.wlat...)
			tr.rlat = append(tr.rlat, r.rlat...)
			tr.flat = append(tr.flat, r.flat...)
		}
		sort.Float64s(tr.latencies)
		fmt.Printf("tenant %d: %7d ops (%d w, %d r) %9.1f ops/s  p50 %sµs  p99 %sµs  p999 %sµs  retries %d\n",
			t, tr.ops, tr.writes, tr.reads, float64(tr.ops)/elapsed.Seconds(),
			pct(tr.latencies, 50), pct(tr.latencies, 99), pct(tr.latencies, 99.9), tr.retries)
		total.ops += tr.ops
		total.writes += tr.writes
		total.reads += tr.reads
		total.flushes += tr.flushes
		total.retries += tr.retries
		total.latencies = append(total.latencies, tr.latencies...)
		total.wlat = append(total.wlat, tr.wlat...)
		total.rlat = append(total.rlat, tr.rlat...)
		total.flat = append(total.flat, tr.flat...)
	}
	sort.Float64s(total.latencies)
	fmt.Printf("aggregate: %d ops in %v — %.1f ops/s (%.1f writes/s, %.1f reads/s)  p50 %sµs  p99 %sµs  p999 %sµs  retries %d\n",
		total.ops, elapsed.Round(time.Millisecond), float64(total.ops)/elapsed.Seconds(),
		float64(total.writes)/elapsed.Seconds(), float64(total.reads)/elapsed.Seconds(),
		pct(total.latencies, 50), pct(total.latencies, 99), pct(total.latencies, 99.9), total.retries)
	for _, class := range []struct {
		name string
		n    int64
		lat  []float64
	}{
		{"write", total.writes, total.wlat},
		{"read", total.reads, total.rlat},
		{"flush", total.flushes, total.flat},
	} {
		if class.n == 0 {
			continue
		}
		sort.Float64s(class.lat)
		fmt.Printf("%-5s: %8d ops  p50 %sµs  p99 %sµs  p999 %sµs\n",
			class.name, class.n, pct(class.lat, 50), pct(class.lat, 99), pct(class.lat, 99.9))
	}

	// A worker that died on an op error fails the run, after the report
	// of what the others measured.
	cmd.Check(total.err)

	final, err := clients[0].Stats()
	cmd.Check(err)
	printStageTable(final)
	fmt.Printf("server: %d group commits covering %d writes, %d backpressure rejections, %d/%d chunks padded, WA %.3f (effective %.3f)\n",
		final["srv_batches"], final["srv_batched_writes"], final["srv_backpressure"],
		final["store_padded_chunks"], final["store_chunk_flushes"],
		float64(final["store_wa_milli"])/1000, float64(final["store_eff_wa_milli"])/1000)
}

// stages mirrors the server's stage taxonomy (telemetry.Stage order);
// the STAT keys are trace_<stage>_{count,p50_ns,p99_ns,p999_ns}.
var stages = []string{"decode", "admission", "batch", "lockwait", "commit", "flush", "respond"}

// printStageTable renders the server-side per-stage latency breakdown
// when the STAT payload carries tracing percentiles (server started
// with tracing enabled).
func printStageTable(st map[string]int64) {
	any := false
	for _, s := range stages {
		if st["trace_"+s+"_count"] > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	tbl := stats.NewTable("stage", "count", "p50", "p99", "p999")
	for _, s := range stages {
		n := st["trace_"+s+"_count"]
		if n == 0 {
			continue
		}
		tbl.AddRow(s, fmt.Sprintf("%d", n),
			fmtNS(st["trace_"+s+"_p50_ns"]),
			fmtNS(st["trace_"+s+"_p99_ns"]),
			fmtNS(st["trace_"+s+"_p999_ns"]))
	}
	fmt.Println("server stage latency (histogram upper bounds):")
	fmt.Print(tbl.String())
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

// pct renders a percentile of the sorted latency sample.
func pct(sorted []float64, p float64) string {
	if len(sorted) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", stats.SortedPercentile(sorted, p))
}
