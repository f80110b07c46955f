package harness

import (
	"context"
	"net"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/loadgen"
	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/serve"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

// LiveLoad sizes what the two live experiments share: one served stack
// per policy and a closed-loop load over the wire protocol.
type LiveLoad struct {
	// Blocks is the store footprint; the engine pre-fills it so GC is
	// active from the first op.
	Blocks int64
	// Tenants is the volume/connection count; Workers the closed-loop
	// pipelined workers per tenant.
	Tenants, Workers int
	// Duration bounds the load in wall-clock time.
	Duration time.Duration
	// WriteFrac and Theta shape the workload (zipfian over each
	// volume's LBA space).
	WriteFrac, Theta float64
}

// build assembles the stack the experiments serve: one pre-filled
// shard of the named policy behind a traced server with one volume per
// tenant, GC paced by gc when it is non-nil. Both experiments trace, so
// gcsched's sync baseline carries the same instrumentation overhead as
// the paced run it is compared to.
func (l LiveLoad) build(polName string, ts *telemetry.Set, gc *gcsched.Config) (*serve.Stack, error) {
	return serve.Build(serve.Config{
		Engine: prototype.ShardedConfig{
			Engine: prototype.EngineConfig{
				Store:     StoreConfig(l.Blocks, 0),
				Fill:      true,
				Telemetry: ts,
			},
			Shards: 1,
			PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
				return BuildPolicy(polName, scfg)
			},
		},
		Server: server.Config{Volumes: l.Tenants, Trace: server.TraceConfig{Enabled: true}},
		GC:     gc,
	})
}

// run serves the stack on a loopback port and drives the load against
// it through loadgen, stamping ops on the engine clock: Tenants
// connections × Workers workers, each stopping after Duration or, with
// ops > 0, that many ops, with a mean exponential gap of think between
// ops. It then calls settled — the connections' span rings still live —
// and shuts the stack down, whatever happened.
func (l LiveLoad) run(st *serve.Stack, seed uint64, ops int, think time.Duration, settled func()) (*loadgen.Result, error) {
	served := make(chan error, 1)
	defer func() {
		st.Shutdown(context.Background())
		<-served
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		served <- nil
		return nil, err
	}
	go func() { served <- st.Serve(ln, nil) }()

	blockBytes := st.Engine.Config().BlockSize
	cfg := loadgen.Config{
		Workers: l.Workers, Size: st.Server.VolumeBlocks() * int64(blockBytes), Align: int64(blockBytes),
		Theta: l.Theta, OpBytes: blockBytes, WriteFrac: l.WriteFrac, Think: think,
		Seed: seed, Duration: l.Duration, Ops: ops, Clock: st.Engine.Now,
	}
	for t := range l.Tenants {
		c, err := server.Dial(ln.Addr().String(), uint32(t))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		c.SetBlockBytes(blockBytes)
		cfg.Conns = append(cfg.Conns, loadgen.Wire{C: c, BlockBytes: blockBytes})
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		return nil, err
	}
	settled()
	return res, loadgen.Summarize(res.Workers).Err
}
