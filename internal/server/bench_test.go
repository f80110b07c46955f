package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/telemetry"
)

// BenchmarkServerRoundtrip measures acknowledged 4 KiB writes over real
// loopback TCP: one iteration is one client write round-trip, spread
// across the tenant fleet, each acked from its group commit. The engine
// shards across GOMAXPROCS cores, so running with -cpu 1,2,4,8 measures
// the shard/group-commit scaling curve. The read/ cases replace the
// writes with 4 KiB reads, whose reply carries the payload.
func BenchmarkServerRoundtrip(b *testing.B) {
	for _, tenants := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			benchRoundtrip(b, tenants, false)
		})
	}
	for _, tenants := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("read/tenants=%d", tenants), func(b *testing.B) {
			benchRoundtrip(b, tenants, true)
		})
	}
}

func benchRoundtrip(b *testing.B, tenants int, read bool) {
	// adaptserve's default store: the paper geometry at 64 Ki blocks,
	// ADAPT on every shard. Shards follow the -cpu value under test
	// (NewSharded defaults to runtime.GOMAXPROCS(0)).
	cfg := lss.Config{UserBlocks: 64 << 10}.GeometryDefaults()
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{Store: cfg},
		PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
			return placement.Build(placement.NameADAPT, scfg, adaptcore.Options{})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Volumes: tenants, MaxInflight: 64})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	clients := make([]*Client, tenants)
	for t := range clients {
		c, err := Dial(ln.Addr().String(), uint32(t))
		if err != nil {
			b.Fatal(err)
		}
		clients[t] = c
	}
	payload := make([]byte, cfg.BlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	volBlocks := srv.VolumeBlocks()

	b.SetBytes(int64(cfg.BlockSize))
	b.ResetTimer()
	var wg sync.WaitGroup
	for t, c := range clients {
		n := b.N / tenants
		if t < b.N%tenants {
			n++
		}
		wg.Add(1)
		go func(c *Client, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				var err error
				if read {
					_, err = c.Read(int64(i)%volBlocks, 1)
				} else {
					err = c.Write(int64(i)%volBlocks, payload)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()

	for _, c := range clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		b.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceHotPath measures per-request tracing overhead on the
// serving path.
//
// The disabled case replays the exact guard sequence a request
// executes when tracing is off — one traceState nil check at span
// creation plus the span nil checks at decode, admission, respond, and
// connection-writer hand-off. This is what the serving layer's own
// tracing guards cost an untraced request and must stay in the
// single-digit nanoseconds. It is not the whole bill: the engine has
// one method per op and every one returns its OpTiming, so an untraced
// engine call also pays three clock reads it used to skip (time.Since:
// 33 ns each, 77–111 ns for the three, measured on this 2-vCPU host)
// against a locked store op of a microsecond or more.
//
// The enabled case runs the full span lifecycle — pool checkout,
// field population, stage stamps, histogram observation, threshold
// check, pool return — with synthetic timestamps so the clock reads
// are excluded and only the tracing machinery is measured.
func BenchmarkTraceHotPath(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var sink int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sp *telemetry.Span
			if benchTraceState != nil { // handleConn: span creation
				sp = benchTraceState.pool.Get().(*telemetry.Span)
			}
			if sp != nil { // handleConn: populate after decode
				sp.MarkAt(telemetry.StageDecode, 1)
			}
			if sp != nil { // dispatch: admission stamp
				sp.MarkAt(telemetry.StageAdmission, 2)
			}
			if sp != nil { // Reply.Send: status copy
				sp.Status = 0
			}
			if sp != nil { // Replies.write: pending-span append
				sink++
			}
		}
		if sink != 0 {
			b.Fatal("disabled path executed trace work")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		ts := telemetry.New(telemetry.Options{})
		tr := newTraceState(TraceConfig{Enabled: true, Threshold: time.Second}, 1, ts)
		ring := telemetry.NewSpanRing(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.pool.Get().(*telemetry.Span)
			sp.ID = uint64(i)
			sp.Volume = 0
			sp.Op = 1
			sp.Start = 100
			sp.MarkAt(telemetry.StageDecode, 110)
			sp.MarkAt(telemetry.StageAdmission, 120)
			sp.MarkAt(telemetry.StageLockWait, 150)
			sp.MarkAt(telemetry.StageCommit, 180)
			sp.MarkAt(telemetry.StageRespond, 200)
			tr.finish(sp, ring) // under threshold: back to the pool
		}
	})
}

// benchTraceState is deliberately a mutable package variable so the
// compiler cannot fold the disabled-path nil checks away.
var benchTraceState *traceState
