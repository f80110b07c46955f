// Package lss implements the log-structured store deployed on an SSD
// array (paper §2.1–2.2): fixed-size segments divided into array
// chunks, per-group open segments with SLA-bounded chunk coalescing and
// zero padding, garbage collection with pluggable victim selection, and
// pluggable data-placement policies. It is the substrate every
// placement scheme in the evaluation runs on.
package lss

import (
	"fmt"

	"adapt/internal/sim"
)

// GroupID identifies a segment group (a stream in multi-stream terms).
type GroupID int

// NoGroup is returned by advisory interfaces to decline a placement.
const NoGroup GroupID = -1

// VictimPolicy selects GC victim segments.
type VictimPolicy int

// Victim selection policies from the paper's evaluation (§4.2) plus
// the Greedy variants discussed in related work (§5): d-choices [22],
// Windowed Greedy [8], and Random Greedy [15].
const (
	Greedy VictimPolicy = iota
	CostBenefit
	DChoices
	WindowedGreedy
	RandomGreedy
)

// victimNames is the one name table: String and ParseVictim read it.
var victimNames = [...]string{
	Greedy:         "greedy",
	CostBenefit:    "cost-benefit",
	DChoices:       "d-choices",
	WindowedGreedy: "windowed-greedy",
	RandomGreedy:   "random-greedy",
}

// String returns the policy name.
func (v VictimPolicy) String() string {
	if v < 0 || int(v) >= len(victimNames) {
		return fmt.Sprintf("victim(%d)", int(v))
	}
	return victimNames[v]
}

// ParseVictim is the inverse of String: it maps a policy name back to
// the policy, and reports false for any other string.
func ParseVictim(name string) (VictimPolicy, bool) {
	for v, n := range victimNames {
		if n == name {
			return VictimPolicy(v), true
		}
	}
	return 0, false
}

// Config describes the store geometry and policies. Zero fields take
// the defaults from the paper's experimental setup (§4.1): 4 KiB
// blocks, 64 KiB chunks, 100 µs coalescing window, RAID-5 over 4 SSDs.
type Config struct {
	// BlockSize is the user request granularity in bytes.
	BlockSize int
	// ChunkBlocks is the array chunk size in blocks (the array's
	// minimum write unit).
	ChunkBlocks int
	// SegmentChunks is the segment size in chunks (zero: scaled with
	// UserBlocks, see GeometryDefaults).
	SegmentChunks int
	// DataColumns is the number of data columns per RAID stripe.
	DataColumns int
	// UserBlocks is the user-visible LBA space in blocks.
	UserBlocks int64
	// OverProvision is the extra physical capacity fraction (0.15 means
	// physical = 1.15 × user capacity).
	OverProvision float64
	// SLAWindow is the maximum time a user block may wait in an
	// unfilled chunk before the chunk is padded and flushed.
	SLAWindow sim.Time
	// Victim selects the GC victim policy.
	Victim VictimPolicy
	// DChoicesD is the sample size when Victim == DChoices.
	DChoicesD int
	// BackgroundGC defers watermark-triggered GC to an external pacer:
	// allocation no longer runs a full synchronous cycle at the low
	// watermark; instead the owner polls GCNeeded and drives bounded
	// slices through GCStep. Allocation still runs the cycle inline —
	// synchronously, until the pool clears the low watermark — if the
	// free pool falls to the emergency floor, so correctness never
	// depends on the pacer keeping up. The watermarks are derived from
	// the policy's group count (see watermarks).
	BackgroundGC bool
	// Paranoid turns on fail-stop self-verification: CheckInvariants
	// runs after every GC cycle and at every Drain, and a violation
	// panics instead of letting corruption propagate. It is O(capacity)
	// per GC cycle — meant for tests, fuzzing, and oracle-backed
	// replays (make paranoid), not production runs. The public
	// SimulatorConfig.Paranoid additionally attaches the full
	// reference-model oracle from internal/checker.
	Paranoid bool
}

// GeometryDefaults returns cfg with the group-independent geometry
// fields (block/chunk/segment sizes, columns, capacity,
// over-provisioning) defaulted. It is the one place the store's shape
// is derived: the simulator, the harness and the served engine all
// take their geometry from it, and the sharded engine uses it to
// partition the LBA space before any placement policy — and therefore
// any group count — exists. The GC watermarks are derived per store by
// New.
//
// A zero SegmentChunks is scaled with capacity, UserBlocks /
// ChunkBlocks / 256 clamped to [2, 32], so every volume keeps about 256
// segments: the per-group open segments and the GC watermark cushion
// then stay a small fraction of capacity and the effective spare
// tracks OverProvision at every scale. 64 Ki blocks get 16 chunks
// (1 MiB segments); 128 Ki blocks and up get 32 (2 MiB).
func (cfg Config) GeometryDefaults() Config {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 4096
	}
	if cfg.ChunkBlocks == 0 {
		cfg.ChunkBlocks = 16 // 64 KiB chunks of 4 KiB blocks
	}
	if cfg.DataColumns == 0 {
		cfg.DataColumns = 3 // 4-SSD RAID-5
	}
	if cfg.UserBlocks == 0 {
		cfg.UserBlocks = 64 << 10
	}
	if cfg.SegmentChunks == 0 {
		cfg.SegmentChunks = int(min(max(cfg.UserBlocks/int64(cfg.ChunkBlocks)/256, 2), 32))
	}
	if cfg.OverProvision == 0 {
		cfg.OverProvision = 0.15
	}
	return cfg
}

// withDefaults returns cfg with zero fields replaced by defaults and
// validates the geometry.
func (cfg Config) withDefaults() Config {
	cfg = cfg.GeometryDefaults()
	if cfg.SLAWindow == 0 {
		cfg.SLAWindow = 100 * sim.Microsecond
	}
	if cfg.DChoicesD == 0 {
		cfg.DChoicesD = 8
	}
	if cfg.BlockSize <= 0 || cfg.ChunkBlocks <= 0 || cfg.SegmentChunks <= 0 {
		panic("lss: non-positive geometry")
	}
	if cfg.UserBlocks <= 0 {
		panic("lss: non-positive user capacity")
	}
	if cfg.OverProvision < 0.02 {
		panic("lss: over-provisioning below 2% cannot sustain GC")
	}
	return cfg
}

// watermarks are a store's GC thresholds in free segments. A cycle is
// due at low, groups + 2, and stops at high; a background store
// collects synchronously only at floor, two below low, which leaves the
// pacer room to act first.
type watermarks struct{ low, high, floor int }

// watermarks derives the thresholds for a groups-group policy.
func (cfg Config) watermarks(groups int) watermarks {
	low := groups + 2
	cushion := 4
	if cfg.BackgroundGC {
		// The watermark cushion is the write burst the pacer can absorb
		// as paced work: below the high watermark it starts trickling,
		// and only after the whole cushion is consumed does an emergency
		// cycle stall a writer. A background store therefore provisions
		// a deeper cushion than the synchronous trigger needs; the
		// reserve is added on top of the user capacity (totalSegments),
		// not carved out of the over-provisioning spare, so WA stays
		// comparable across modes.
		cushion = 12
	}
	return watermarks{low: low, high: low + cushion, floor: max(1, low-2)}
}

// TotalSegments returns the physical segment count a store built from
// this configuration with a groups-group policy will have. External
// durable backends (internal/segfile) use it to synthesize recovery
// images that match the store New would build.
func (cfg Config) TotalSegments(groups int) int {
	return cfg.withDefaults().totalSegments(groups)
}

// SegmentBlocks returns blocks per segment.
func (cfg Config) SegmentBlocks() int { return cfg.ChunkBlocks * cfg.SegmentChunks }

// ChunkBytes returns the chunk size in bytes.
func (cfg Config) ChunkBytes() int64 { return int64(cfg.BlockSize) * int64(cfg.ChunkBlocks) }

// totalSegments derives the physical segment count: enough segments
// to hold the user capacity plus the over-provisioning spare, with the
// per-group open segments and the GC watermark reserve added on top so
// that the effective spare is scale-independent (at paper scale the
// reserve is negligible; at test scale it would otherwise swallow the
// spare and inflate WA for many-group policies).
func (cfg Config) totalSegments(groups int) int {
	physBlocks := float64(cfg.UserBlocks) * (1 + cfg.OverProvision)
	n := int(physBlocks)/cfg.SegmentBlocks() + 1
	return n + groups + cfg.watermarks(groups).high + 2
}
