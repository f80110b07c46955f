package adapt

import (
	"time"

	"adapt/internal/lss"
	"adapt/internal/prototype"
)

// Engine is the live ingest engine: a log-structured store per LBA
// shard over one modelled RAID-5 device array. There is one engine
// type — a single-shard Engine is the smallest one, not a different
// kind — and NewEngine is the supported way to obtain it. Beyond the
// Ingest ops it carries the owner's surface: fault operations
// (FailColumn, RebuildStep), the background-GC stepping surface
// (GCShards, QueueFill), Drain and Close. All methods are safe for
// concurrent use.
type Engine = prototype.Sharded

// Ingest is the slice of Engine a serving layer drives: the four ops
// (write, batched write, read, trim — each returning its OpTiming),
// stats, and shard geometry.
type Ingest = prototype.Ingest

// GCShard is one shard's background-GC stepping surface (need,
// urgency, bounded slices); Engine.GCShards exposes one per shard for
// an external pacer when the store runs with GCSched.Background.
type GCShard = prototype.GCShard

// OpTiming is the per-operation timing breakdown (lock wait, commit,
// device backpressure) every engine operation returns; callers that do
// not want it discard it.
type OpTiming = prototype.OpTiming

// BatchWrite is one write of a batched group commit.
type BatchWrite = prototype.BatchWrite

// EngineStats is a point-in-time snapshot of an engine's traffic,
// GC, latency, and queueing counters.
type EngineStats = prototype.EngineStats

// EngineConfig describes a single-shard ingest engine. The store
// geometry, placement policy, and GC scheduling mode all come from the
// embedded SimulatorConfig, so an engine shares the simulator's
// validation and defaulting (bad names and bad GC settings surface as
// errors here, never panics deeper in the stack).
type EngineConfig struct {
	// Simulator is the store geometry, placement policy, and GC
	// scheduling mode (GCSched).
	Simulator SimulatorConfig
	// ServiceTime is the modelled device time per chunk write (default
	// 50 µs ≈ 64 KiB chunks at 1.3 GB/s per SSD); a chunk read takes
	// half of it.
	ServiceTime time.Duration
	// QueueDepth bounds each device's queue (default 8).
	QueueDepth int
	// Fill writes every block sequentially before the engine is
	// returned, so subsequent traffic runs at full utilization with GC
	// active.
	Fill bool
	// Verify attaches the correctness oracle: all traffic is
	// cross-checked against a flat reference model, and Close runs a
	// full O(capacity) check.
	Verify bool
}

// NewEngine builds and starts a single-shard ingest engine through the
// validated public configuration path. The caller must Close it to
// drain open chunks and stop the device workers. Constructing internal
// prototype engines directly is deprecated for anything outside this
// module's own tooling: it bypasses configuration validation and the
// typed GCSchedConfig mapping.
func NewEngine(c EngineConfig) (*Engine, error) {
	cfg, pol, err := c.Simulator.build()
	if err != nil {
		return nil, err
	}
	return prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: c.ServiceTime,
			QueueDepth:  c.QueueDepth,
			Fill:        c.Fill,
			Verify:      c.Verify,
		},
		Shards: 1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) {
			return pol, nil
		},
	})
}
