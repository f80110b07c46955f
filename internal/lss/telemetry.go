package lss

import (
	"fmt"

	"adapt/internal/telemetry"
)

// shardName decorates a metric name with the store's shard label so
// several shard stores can register on one telemetry set without
// colliding. Standalone stores (shard < 0) keep the plain canonical
// names. Names that already carry labels get ",shard=N" appended
// inside the braces.
func (s *Store) shardName(name string) string {
	if s.shard < 0 {
		return name
	}
	if last := len(name) - 1; last >= 0 && name[last] == '}' {
		return fmt.Sprintf("%s,shard=\"%d\"}", name[:last], s.shard)
	}
	return fmt.Sprintf("%s{shard=\"%d\"}", name, s.shard)
}

// attachTelemetry attaches a telemetry set to the store (reached via
// Deps.Telemetry or Reconfigure): canonical store metrics register as
// function-backed gauges over the live Metrics (zero hot-path cost),
// the recorder begins ticking on the store's simulated clock inside
// advance, and the tracer receives GC, seal, flush, and padding
// events. Pass nil to detach the recorder and tracer (registered
// gauges keep reading the store).
//
// Attach at most one set per store, before concurrent use begins. The
// function gauges read store state whenever they are read, so whoever
// serializes the store must guard them: the engine passes a set
// Guarded by its shard lock.
//
// Shard stores (Deps.Sharded) register every instrument under a
// {shard="id"} label and attach neither the recorder nor the tracer:
// those are simulator instruments, and one process-wide tracer lock or
// recorder tick would couple shards the engine keeps apart.
func (s *Store) attachTelemetry(ts *telemetry.Set) {
	s.tset = ts
	if ts == nil {
		s.tracer = nil
		s.rec = nil
		s.padHist = nil
		s.itv = nil
		return
	}
	if s.shard < 0 {
		s.tracer = ts.Tracer
		s.rec = ts.Recorder
	}
	s.itv = ts.Intervals
	reg := ts.Registry

	type cum struct {
		name, help string
		fn         func() int64
	}
	for _, c := range []cum{
		{telemetry.MetricUserBlocks, "User blocks accepted", func() int64 { return s.metrics.UserBlocks }},
		{telemetry.MetricGCBlocks, "Valid blocks rewritten by GC", func() int64 { return s.metrics.GCBlocks }},
		{telemetry.MetricShadowBlocks, "Shadow copies written", func() int64 { return s.metrics.ShadowBlocks }},
		{telemetry.MetricPaddingBlocks, "Zero-padding blocks written", func() int64 { return s.metrics.PaddingBlocks }},
		{telemetry.MetricReadBlocks, "User blocks read", func() int64 { return s.metrics.ReadBlocks }},
		{telemetry.MetricTrimmedBlocks, "Blocks discarded via Trim", func() int64 { return s.metrics.TrimmedBlocks }},
		{telemetry.MetricGCCycles, "GC activations", func() int64 { return s.metrics.GCCycles }},
		{telemetry.MetricGCThrottled, "GC activations throttled by degraded mode", func() int64 { return s.metrics.ThrottledGCCycles }},
		{telemetry.MetricSegmentsReclaimed, "Segments reclaimed by GC", func() int64 { return s.metrics.SegmentsReclaimed }},
		{telemetry.MetricGCScanned, "Victim-selection effort: index probes (legacy scan: candidates considered)", func() int64 { return s.metrics.GCScannedBlocks }},
		{telemetry.MetricGCSlices, "Externally paced GC slices executed", func() int64 { return s.metrics.GCSlices }},
		{telemetry.MetricGCEmergency, "Synchronous emergency GC runs under background mode", func() int64 { return s.metrics.GCEmergencyRuns }},
		{telemetry.MetricSLAViolations, "Persistence latencies beyond the SLA window", func() int64 { return s.metrics.Latency.Violations }},
		{telemetry.MetricChunkFlushes, "Chunk writes issued to the array", func() int64 {
			var n int64
			for i := range s.metrics.PerGroup {
				n += s.metrics.PerGroup[i].ChunkFlushes
			}
			return n
		}},
	} {
		reg.NewFuncGauge(s.shardName(c.name), c.help, true, c.fn)
	}
	reg.NewFuncGauge(s.shardName(telemetry.MetricFreeSegments), "Free segments in the pool", false,
		func() int64 { return int64(len(s.free)) })
	for i := range s.groups {
		i := i
		reg.NewFuncGauge(
			s.shardName(fmt.Sprintf("%s{group=\"%d\"}", telemetry.MetricGroupBlocksPrefix, i)),
			"Block slots written into the group", true,
			func() int64 { return s.metrics.PerGroup[i].TotalBlocks() })
		reg.NewFuncGauge(
			s.shardName(fmt.Sprintf("%s{group=\"%d\"}", telemetry.MetricGroupPaddingPrefix, i)),
			"Zero-padding block slots written into the group", true,
			func() int64 { return s.metrics.PerGroup[i].PaddingBlocks })
	}
	bounds := []int64{0, 1, 2, 4, 8}
	if last := int64(s.chunkBlocks); last > bounds[len(bounds)-1] {
		bounds = append(bounds, last)
	}
	s.padHist = reg.NewHistogram(s.shardName(telemetry.MetricChunkPadHistogram),
		"Padding blocks per chunk flush", bounds)

	if s.recoveredSegments > 0 {
		s.tracer.Emit(telemetry.Recovery(s.now, s.recoveredSegments, s.recoveredBlocks))
	}
}
