package prototype

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// deviceJobs sums the per-device chunk counters — every job a device
// worker serviced — and readBlocks reads shard 0's user-read counter.
// Call after Run returned: Close finished the recorder, which refreshed
// the store-reading gauges.
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
	for _, in := range ts.Registry.Scalars() {
		if in.Name() == telemetry.MetricReadBlocks+`{shard="0"}` {
			return in.Load()
		}
	}
	t.Fatalf("%s{shard=\"0\"} not registered", telemetry.MetricReadBlocks)
	return 0
}

// TestPrototypeRace runs concurrent clients with telemetry attached
// while a scraper goroutine continuously snapshots the registry,
// recorder, and tracer — the live-introspection pattern of the debug
// HTTP endpoint. Run under -race it proves the concurrency contract:
// atomic counters, cached function gauges, and the mutex-guarded
// recorder/tracer never race with the store's writers.
func TestPrototypeRace(t *testing.T) {
	ts := telemetry.New(telemetry.Options{
		WindowInterval: sim.Time(time.Millisecond),
		EventCapacity:  1024,
	})
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
			buf.Reset()
			if err := ts.Tracer.WriteJSONL(&buf); err != nil {
				t.Error(err)
				return
			}
			buf.Reset()
			if err := telemetry.WriteWindowsJSONL(&buf, ts.Recorder.Windows()); err != nil {
				t.Error(err)
				return
			}
			ts.Recorder.Dropped()
			ts.Tracer.Len()
		}
	}()

	res, err := Run(Config{
		Engine: EngineConfig{
			Store:       protoStoreConfig(),
			Policy:      protoPolicy(t),
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
	// The attached set must agree with the run result on totals.
	ws := ts.Recorder.Windows()
	if len(ws) == 0 {
		t.Fatal("no telemetry windows recorded")
	}
	// Run's store is shard 0 of the one engine, labelled like any other.
	last := &ws[len(ws)-1]
	if v, ok := last.Value(telemetry.MetricUserBlocks + `{shard="0"}`); !ok || v != res.UserBlocks {
		t.Fatalf("telemetry user blocks %d (present %v), run reported %d", v, ok, res.UserBlocks)
	}
	if v, ok := last.Value(telemetry.MetricPaddingBlocks + `{shard="0"}`); !ok || v != res.PaddingBlocks {
		t.Fatalf("telemetry padding blocks %d (present %v), run reported %d", v, ok, res.PaddingBlocks)
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
	if ts.Tracer.Len() == 0 {
		t.Fatal("no events traced")
	}
	// Chunk conservation on a healthy array: every flushed chunk, every
	// parity chunk and every single-block read is exactly one device job.
	reads := readBlocks(t, ts)
	if got, want := deviceJobs(ts), res.ChunksWritten+res.ParityChunks+reads; got != want || reads == 0 {
		t.Fatalf("devices serviced %d jobs, want %d flushes + %d parity + %d reads = %d",
			got, res.ChunksWritten, res.ParityChunks, reads, want)
	}
}
