package harness

import (
	"context"
	"net"
	"time"

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
	// ServiceTime is the modelled per-chunk device time.
	ServiceTime time.Duration
}

// filledEngine is the engine the experiments serve: one pre-filled
// shard of the named policy.
func (l LiveLoad) filledEngine(polName string, ts *telemetry.Set) prototype.ShardedConfig {
	return prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       StoreConfig(l.Blocks, 0),
			ServiceTime: l.ServiceTime,
			Fill:        true,
			Telemetry:   ts,
		},
		Shards: 1,
		PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
			return BuildPolicy(polName, scfg)
		},
	}
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
