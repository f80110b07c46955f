// Command nbdload is a closed-loop load generator that speaks the
// standard NBD protocol against adaptserve's -nbd-addr listener (or
// any other NBD server): one NBD connection per worker (exercising
// NBD_FLAG_CAN_MULTI_CONN), byte-addressed requests with an optional
// unaligned fraction (exercising the server's read-modify-write
// path), and a throughput + p50/p99/p999 latency report. With -verify
// each worker also reads its own slice of the export back against a
// shadow of its acked writes. The loop is internal/loadgen's.
//
// Usage:
//
//	nbdload -addr 127.0.0.1:10809 -export vol0 -duration 5s
//	nbdload -workers 8 -write-frac 1 -unaligned 0.5 -verify
package main

import (
	"fmt"
	"os"
	"time"

	"adapt/internal/cli"
	"adapt/internal/loadgen"
	"adapt/internal/nbd/nbdtest"
)

func main() {
	cmd := cli.New("nbdload",
		"nbdload -addr 127.0.0.1:10809 -export vol0 -duration 5s",
		"nbdload -workers 8 -write-frac 1 -unaligned 0.5 -verify")
	cfg := loadgen.Config{Workers: 1}
	fs := cmd.Flags()
	addr := fs.String("addr", "127.0.0.1:10809", "NBD server address")
	export := fs.String("export", "vol0", "export name (empty: the server's default export)")
	workers := fs.Int("workers", 4, "closed-loop workers, one NBD connection each")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "load duration")
	fs.IntVar(&cfg.OpBytes, "op-bytes", 4096, "request payload size in bytes")
	fs.Float64Var(&cfg.WriteFrac, "write-frac", 0.7, "fraction of ops that are writes")
	fs.Float64Var(&cfg.Unaligned, "unaligned", 0, "fraction of ops issued at unaligned byte offsets")
	fs.IntVar(&cfg.FlushEvery, "flush-every", 0, "issue an NBD_CMD_FLUSH every n ops per worker (0 disables)")
	fs.BoolVar(&cfg.Verify, "verify", false, "shadow-mirror acked writes per worker and read the whole slice back at the end")
	seed := fs.Int64("seed", 1, "random seed")
	cmd.Parse(os.Args[1:])

	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	if *workers < 1 || cfg.OpBytes < 1 {
		cmd.UsageErrorf("-workers and -op-bytes must be positive")
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac > 1 {
		cmd.UsageErrorf("-write-frac must be in [0,1], got %g", cfg.WriteFrac)
	}
	if cfg.Unaligned < 0 || cfg.Unaligned > 1 {
		cmd.UsageErrorf("-unaligned must be in [0,1], got %g", cfg.Unaligned)
	}

	// Geometry handshake: one throwaway connection sizes the export.
	probe, err := nbdtest.Dial(*addr, *export)
	cmd.Check(err)
	info := probe.Info()
	probe.Close()
	if info.Size < uint64(*workers)*uint64(cfg.OpBytes)*2 {
		cmd.UsageErrorf("export %q is %d bytes: too small for %d workers × %d-byte ops",
			*export, info.Size, *workers, cfg.OpBytes)
	}
	if uint64(cfg.OpBytes) > uint64(info.MaxBlock) && info.MaxBlock != 0 {
		cmd.UsageErrorf("-op-bytes %d exceeds the export's %d-byte request cap", cfg.OpBytes, info.MaxBlock)
	}
	if *workers > 1 && info.Flags&nbdtest.TFlagCanMultiConn == 0 {
		fmt.Fprintln(os.Stderr, "nbdload: warning: server does not advertise CAN_MULTI_CONN; multi-worker results may be unsafe")
	}
	cfg.Size, cfg.Align, cfg.Seed = int64(info.Size), int64(info.PreferredBlock), uint64(*seed)
	if cfg.Align == 0 {
		cfg.Align = 4096
	}
	for range *workers {
		c, err := nbdtest.Dial(*addr, *export)
		cmd.Check(err)
		defer c.Close()
		cfg.Conns = append(cfg.Conns, loadgen.NBD{Client: c})
	}

	fmt.Printf("loading %q (%d bytes, preferred block %d) × %d workers for %v (%.0f%% writes, %.0f%% unaligned, %dB ops, verify=%v)\n",
		*export, info.Size, info.PreferredBlock, *workers, cfg.Duration,
		100*cfg.WriteFrac, 100*cfg.Unaligned, cfg.OpBytes, cfg.Verify)
	res, err := loadgen.Run(cfg)
	cmd.Check(err)
	s, el := loadgen.Summarize(res.Workers), res.Elapsed.Seconds()
	fmt.Printf("aggregate: %d ops in %v — %.1f ops/s, %.1f MiB/s (%d w, %d r, %d flush, %d unaligned writes)\n",
		len(s.All), res.Elapsed.Round(time.Millisecond), float64(len(s.All))/el, float64(len(s.All)*cfg.OpBytes)/el/(1<<20),
		len(s.ByKind[loadgen.Write]), len(s.ByKind[loadgen.Read]), len(s.ByKind[loadgen.Flush]), s.Ragged)
	fmt.Printf("latency: %s\n", loadgen.Tail(s.All))
	// A worker that died fails the run, after the report of what the
	// others measured.
	cmd.Check(s.Err)
	if cfg.Verify {
		fmt.Println("verify: all worker slices read back byte-identical")
	}
}
