package prototype

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/telemetry"
)

// deviceJobs sums the per-device chunk counters — every job a device
// worker serviced — and readBlocks reads shard 0's user-read counter.
// Call after Run returned, so the counts are final.
func deviceJobs(ts *telemetry.Set) (jobs int64) {
	for _, in := range ts.Registry.Scalars() {
		if strings.HasPrefix(in.Name(), telemetry.MetricDeviceChunksPrefix+"{") {
			jobs += in.Load()
		}
	}
	return jobs
}

func readBlocks(t *testing.T, ts *telemetry.Set) int64 {
	t.Helper()
	return load(t, ts, telemetry.MetricReadBlocks+`{shard="0"}`)
}

// load reads one registered scalar by its full name.
func load(t *testing.T, ts *telemetry.Set, name string) int64 {
	t.Helper()
	for _, in := range ts.Registry.Scalars() {
		if in.Name() == name {
			return in.Load()
		}
	}
	t.Fatalf("%s not registered", name)
	return 0
}

// TestPrototypeRace runs concurrent clients with telemetry attached
// while a scraper goroutine continuously renders the registry and loads
// every instrument one by one — the live-introspection pattern of the
// debug HTTP endpoint. Run under -race it proves the concurrency
// contract: atomic counters and live function gauges — the store's and
// the ADAPT policy's, evaluated under the shard lock — never race with
// the engine's writers.
func TestPrototypeRace(t *testing.T) {
	ts := telemetry.New(telemetry.Options{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for !stop.Load() {
			buf.Reset()
			if err := ts.Registry.WriteProm(&buf); err != nil {
				t.Error(err)
				return
			}
			for _, in := range ts.Registry.Scalars() {
				in.Load()
			}
		}
	}()

	cfg := protoStoreConfig()
	res, err := Run(Config{
		Engine: EngineConfig{
			Store: cfg,
			Policy: adaptcore.New(adaptcore.Config{
				UserBlocks:    cfg.UserBlocks,
				SegmentBlocks: cfg.SegmentBlocks(),
				ChunkBlocks:   cfg.ChunkBlocks,
				OverProvision: cfg.OverProvision,
			}, adaptcore.Options{SampleRate: 0.5}),
			Fill:        true,
			ServiceTime: time.Microsecond,
			QueueDepth:  8,
			Telemetry:   ts,
		},
		Clients:   8,
		Ops:       20000,
		Theta:     0.99,
		ReadRatio: 0.2,
		Seed:      11,
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 {
		t.Fatal("no throughput")
	}
	// The registry reads the run's totals exactly: function gauges are
	// evaluated when read, so there is no refresh for them to lag.
	// Run's store is shard 0 of the one engine, labelled like any other.
	for name, want := range map[string]int64{
		telemetry.MetricUserBlocks:    res.UserBlocks,
		telemetry.MetricGCBlocks:      res.GCBlocks,
		telemetry.MetricShadowBlocks:  res.ShadowBlocks,
		telemetry.MetricPaddingBlocks: res.PaddingBlocks,
		telemetry.MetricChunkFlushes:  res.ChunksWritten,
	} {
		if got := load(t, ts, name+`{shard="0"}`); got != want {
			t.Errorf("registry %s{shard=\"0\"} = %d, run reported %d", name, got, want)
		}
	}
	// Run wires the policy's own gauges, under the same shard lock.
	if load(t, ts, telemetry.MetricAdaptThreshold) <= 0 {
		t.Error("adapt_threshold_blocks never read a threshold")
	}
	// Per-device instruments registered and accumulated.
	var busy int64
	for _, in := range ts.Registry.Scalars() {
		if telemetry.LabelValue(in.Name(), "device") != "" && in.Cumulative() {
			busy += in.Load()
		}
	}
	if busy == 0 {
		t.Fatal("per-device counters never accumulated")
	}
	// Chunk conservation on a healthy array: every flushed chunk, every
	// parity chunk and every single-block read is exactly one device job.
	reads := readBlocks(t, ts)
	if got, want := deviceJobs(ts), res.ChunksWritten+res.ParityChunks+reads; got != want || reads == 0 {
		t.Fatalf("devices serviced %d jobs, want %d flushes + %d parity + %d reads = %d",
			got, res.ChunksWritten, res.ParityChunks, reads, want)
	}
}
