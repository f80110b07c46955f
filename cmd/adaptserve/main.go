// Command adaptserve serves the ADAPT array as a multi-tenant network
// block service: the storage engine (a log-structured store per LBA
// shard over RAID-5 array accounting) behind the internal/server wire
// protocol, with live telemetry (Prometheus-style /metrics, read at
// scrape time, /debug/trace, /debug/pprof) on a second HTTP listener.
//
// Usage:
//
//	adaptserve -addr 127.0.0.1:9750 -telemetry 127.0.0.1:9751
//	adaptserve -volumes 8 -policy adapt
//	adaptserve -data-dir /var/lib/adapt -durable-sync always
//	adaptserve -nbd-addr 127.0.0.1:10809
//
// With -nbd-addr the same volumes are additionally exported over the
// standard Network Block Device protocol (newstyle fixed handshake),
// one export per volume named vol0..volN-1, so a stock nbd-client or
// qemu-nbd can attach them while the bespoke wire protocol keeps
// serving on -addr.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/cli"
	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/serve"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

// listen is what main needs beside the stack's Config: where to bind,
// and the placement-policy name the boot line prints.
type listen struct {
	wire, telemetry, nbd, policy string
}

// configFromFlags turns the command line into the stack's Config and
// the listen addresses. It builds and binds nothing; an invalid
// combination comes back as an error for main to report as a usage
// error. (A flag-syntax error exits 2 inside cmd.Parse, as in every
// cmd/ binary.) The defaults are what bench/ runs, so changing one is a
// benchmark change — TestConfigFromFlags pins them.
func configFromFlags(cmd *cli.Command, args []string) (serve.Config, listen, error) {
	fs := cmd.Flags()
	addr := fs.String("addr", "127.0.0.1:9750", "block service listen address")
	telAddr := fs.String("telemetry", "127.0.0.1:9751", "telemetry HTTP listen address (empty disables)")
	volumes := fs.Int("volumes", 8, "tenant volumes to carve from the array")
	policy := fs.String("policy", placement.NameADAPT, "placement policy: "+strings.Join(placement.Names(), "|"))
	victim := fs.String("victim", "greedy", "GC victim policy: greedy|cost-benefit|d-choices|windowed-greedy|random-greedy")
	userBlocks := fs.Int64("user-blocks", 64<<10, "array capacity in 4 KiB blocks (without -data-dir the RAM data plane grows with it)")
	shards := fs.Int("shards", 0, "engine shards across the LBA space (0: GOMAXPROCS, 1: one shard)")
	maxInflight := fs.Int("max-inflight", 64, "per-tenant inflight ops before backpressure")
	trace := fs.Bool("trace", true, "per-request tracing with tail-latency attribution (/debug/trace)")
	traceThreshUS := fs.Int("trace-threshold-us", 500, "latency above which a span becomes an exemplar")
	gcBG := fs.Bool("gc-bg", false, "background paced GC instead of synchronous watermark cycles")
	gcSliceUnits := fs.Int("gc-slice-units", 0, "pacer relocation budget per tick at urgency 1 (0: gcsched default)")
	gcIntervalUS := fs.Int("gc-interval-us", 0, "pacer tick interval in microseconds (0: gcsched default)")
	gcTargetUS := fs.Int("gc-target-p999-us", 2000, "back off non-urgent GC while traced p999 exceeds this (0 or -trace=false disables)")
	nbdAddr := fs.String("nbd-addr", "", "NBD listen address: exports every volume as vol0..volN-1 over the standard NBD protocol (empty disables)")
	nbdMaxReqKiB := fs.Int("nbd-max-req-kib", 0, "largest NBD request payload in KiB (0: protocol default of 8 MiB)")
	dataDir := fs.String("data-dir", "", "durable root: <dir>/engine holds the segment log, <dir>/volumes the tenant payload files; reboot recovers both (empty: RAM only)")
	durableSync := fs.String("durable-sync", "seal", "segment-log fsync discipline: always (every chunk append) | seal (chunks sync with their segment's seal; seals, frees and checkpoints sync after the ack, outside the engine lock)")
	cmd.Parse(args)

	fail := func(format string, a ...any) (serve.Config, listen, error) {
		return serve.Config{}, listen{}, fmt.Errorf(format, a...)
	}
	if fs.NArg() != 0 {
		return fail("unexpected arguments: %v", fs.Args())
	}
	if *volumes < 1 {
		return fail("-volumes must be at least 1, got %d", *volumes)
	}
	if *userBlocks < 1 {
		return fail("-user-blocks must be at least 1, got %d", *userBlocks)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"shards", *shards}, {"max-inflight", *maxInflight},
		{"trace-threshold-us", *traceThreshUS},
		{"gc-slice-units", *gcSliceUnits}, {"gc-interval-us", *gcIntervalUS}, {"gc-target-p999-us", *gcTargetUS},
	} {
		if f.v < 0 {
			return fail("-%s must be non-negative, got %d", f.name, f.v)
		}
	}
	if *nbdMaxReqKiB < 0 {
		return fail("-nbd-max-req-kib must be non-negative, got %d", *nbdMaxReqKiB)
	}
	if *nbdMaxReqKiB > 0 && *nbdAddr == "" {
		return fail("-nbd-max-req-kib requires -nbd-addr")
	}
	vp, ok := lss.ParseVictim(*victim)
	if !ok {
		return fail("unknown victim policy %q", *victim)
	}
	store := lss.Config{UserBlocks: *userBlocks, Victim: vp}.GeometryDefaults()
	if _, err := placement.Build(*policy, store, adaptcore.Options{}); err != nil {
		return fail("%v", err)
	}
	cfg := serve.Config{
		Engine: prototype.ShardedConfig{
			Engine: prototype.EngineConfig{
				Store:     store,
				Telemetry: telemetry.New(telemetry.Options{}),
			},
			Shards: *shards,
			PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
				return placement.Build(*policy, scfg, adaptcore.Options{})
			},
		},
		Server: server.Config{
			Volumes:     *volumes,
			MaxInflight: *maxInflight,
			Trace: server.TraceConfig{
				Enabled:   *trace,
				Threshold: time.Duration(*traceThreshUS) * time.Microsecond,
			},
		},
		DataDir: *dataDir,
	}
	if *dataDir != "" {
		mode, err := segfile.ParseSyncMode(*durableSync)
		if err != nil {
			return fail("unknown -durable-sync %q (want always|seal)", *durableSync)
		}
		cfg.Engine.Engine.Durable = &segfile.Options{Sync: mode}
	}
	if *gcBG {
		cfg.GC = &gcsched.Config{
			Interval:   time.Duration(*gcIntervalUS) * time.Microsecond,
			SliceUnits: *gcSliceUnits,
			TargetP999: time.Duration(*gcTargetUS) * time.Microsecond,
		}
	}
	if *nbdAddr != "" {
		cfg.NBD = &nbd.Config{MaxRequestBytes: *nbdMaxReqKiB << 10}
	}
	return cfg, listen{wire: *addr, telemetry: *telAddr, nbd: *nbdAddr, policy: *policy}, nil
}

func main() {
	cmd := cli.New("adaptserve",
		"adaptserve -addr 127.0.0.1:9750 -telemetry 127.0.0.1:9751",
		"adaptserve -volumes 8 -policy adapt",
		"adaptserve -data-dir /var/lib/adapt -durable-sync always")
	cfg, at, err := configFromFlags(cmd, os.Args[1:])
	if err != nil {
		cmd.UsageErrorf("%v", err)
	}
	st, err := serve.Build(cfg)
	cmd.Check(err)
	eng, srv := st.Engine, st.Server

	if at.telemetry != "" {
		// With -trace=false the handler answers 404 "tracing disabled".
		extra := map[string]http.Handler{"/debug/trace": srv.TraceHandler()}
		_, taddr, err := telemetry.Serve(at.telemetry, cfg.Engine.Engine.Telemetry, extra)
		cmd.Check(err)
		fmt.Printf("telemetry on http://%s/ (metrics, debug/trace, debug/pprof)\n", taddr)
	}
	var nln net.Listener
	if st.NBD != nil {
		nln, err = net.Listen("tcp", at.nbd)
		cmd.Check(err)
		fmt.Printf("nbd: %d exports (vol0..vol%d) on %s\n", srv.Volumes(), srv.Volumes()-1, nln.Addr())
	}
	ln, err := net.Listen("tcp", at.wire)
	cmd.Check(err)
	gcMode := "sync"
	if st.GC != nil {
		gcMode = "background"
	}
	fmt.Printf("serving %d volumes × %d blocks (%s policy, %d shards, gc=%s) on %s\n",
		srv.Volumes(), srv.VolumeBlocks(), at.policy, eng.Shards(), gcMode, ln.Addr())
	if cfg.DataDir != "" {
		if ds, ok := eng.DurableStats(); ok && eng.Recovered() {
			fmt.Printf("durable: recovered %d segments (%d live blocks) from %s\n",
				ds.RecoveredSegments, ds.RecoveredBlocks, cfg.DataDir)
		} else {
			// odirect=false: the flag is gone, the token stays for
			// whoever greps the boot line.
			fmt.Printf("durable: fresh log in %s (sync=%s, odirect=false)\n", cfg.DataDir, cfg.Engine.Engine.Durable.Sync)
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	drained := make(chan error, 1)
	go func() {
		<-sigCh
		fmt.Println("draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- st.Shutdown(ctx)
	}()

	// Serve returns when Shutdown closes the listeners; the stack is
	// drained and the engine closed only once Shutdown itself returns.
	cmd.Check(st.Serve(ln, nln))
	cmd.Check(<-drained)
	fin := eng.Stats()
	fmt.Printf("final: %d user blocks, WA %.3f, effective WA %.3f, %d padded chunks of %d flushed\n",
		fin.UserBlocks, fin.WA, fin.EffectiveWA, fin.PaddedChunks, fin.ChunkFlushes)
}
