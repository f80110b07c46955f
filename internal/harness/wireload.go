package harness

import (
	"context"
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"adapt/internal/fault"
	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/serve"
	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
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

// opRecord is one completed client op on the engine clock: the window
// [Start, End] is compared against GC intervals from the same clock.
type opRecord struct {
	start, end sim.Time
}

// sortedLatencies returns the ops' latencies in ascending order.
func sortedLatencies(ops []opRecord) []float64 {
	lats := make([]float64, len(ops))
	for i, r := range ops {
		lats[i] = float64(r.end - r.start)
	}
	slices.Sort(lats)
	return lats
}

// run serves the stack on a loopback port and drives the load against
// it: Tenants connections × Workers goroutines, each drawing zipfian
// LBAs over its volume, writing with probability WriteFrac and retrying
// backpressure with the default backoff, until Duration is up or, with
// maxOps > 0, the worker has done that many ops; think > 0 is the mean
// exponential inter-op gap (0: no draw from the worker's RNG). It then
// calls settled — the connections' span rings still live — and shuts
// the stack down, whatever happened. It returns every completed op on
// the engine clock, in worker order.
func (l LiveLoad) run(st *serve.Stack, seed uint64, maxOps int, think time.Duration, settled func()) ([]opRecord, error) {
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

	eng := st.Engine
	span := st.Server.VolumeBlocks()
	payloadBytes := eng.Config().BlockSize
	deadline := time.Now().Add(l.Duration)
	clients := make([]*server.Client, l.Tenants)
	for t := range clients {
		c, err := server.Dial(ln.Addr().String(), uint32(t))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		c.SetBlockBytes(payloadBytes)
		clients[t] = c
	}
	records := make([][]opRecord, l.Tenants*l.Workers)
	var wg sync.WaitGroup
	var runErr error
	var errOnce sync.Once
	for i := range records {
		wg.Add(1)
		t, w := i/l.Workers, i%l.Workers
		go func(c *server.Client, recs *[]opRecord, seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed)
			zipf := workload.NewZipf(rng, span, l.Theta, true)
			payload := make([]byte, payloadBytes)
			for i := range payload {
				payload[i] = byte(rng.Intn(256))
			}
			bo := fault.Backoff{}
			for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(deadline); n++ {
				if think > 0 {
					// Exponential think time: bursty arrivals at a
					// controlled mean utilization.
					gap := -math.Log(1-rng.Float64()) * float64(think)
					time.Sleep(time.Duration(gap))
				}
				lba := zipf.Next()
				write := rng.Float64() < l.WriteFrac
				t0 := eng.Now()
				var err error
				for attempt := 0; ; attempt++ {
					if write {
						err = c.Write(lba, payload)
					} else {
						_, err = c.Read(lba, 1)
					}
					if !errors.Is(err, server.ErrBackpressure) {
						break
					}
					time.Sleep(bo.Delay(attempt))
				}
				if err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
				*recs = append(*recs, opRecord{start: t0, end: eng.Now()})
			}
		}(clients[t], &records[i], seed+uint64(t*1000+w))
	}
	wg.Wait()
	settled()
	return slices.Concat(records...), runErr
}
