package lss

import "fmt"

// GroupMetrics accumulates per-group traffic counters.
type GroupMetrics struct {
	UserBlocks    int64 // user-written blocks appended
	GCBlocks      int64 // GC-rewritten blocks appended
	ShadowBlocks  int64 // shadow copies appended (cross-group aggregation)
	PaddingBlocks int64 // zero-padding block slots written
	PaddingEvents int64 // padded chunk flushes
	ChunkFlushes  int64 // total chunk flushes
	Sealed        int64 // segments sealed in this group (cumulative)
}

// TotalBlocks returns all block slots written into the group.
func (g GroupMetrics) TotalBlocks() int64 {
	return g.UserBlocks + g.GCBlocks + g.ShadowBlocks + g.PaddingBlocks
}

// Metrics accumulates store-wide counters. All counters are in blocks
// unless stated otherwise.
type Metrics struct {
	UserBlocks    int64 // user writes accepted
	GCBlocks      int64 // valid blocks rewritten by GC
	ShadowBlocks  int64 // shadow copies written
	PaddingBlocks int64 // zero-padding blocks written
	ReadBlocks    int64 // user reads (stats only)
	TrimmedBlocks int64 // blocks discarded via Trim

	// Latency tracks user-block persistence latency.
	Latency LatencyStats

	GCCycles          int64 // GC activations
	SegmentsReclaimed int64
	// ThrottledGCCycles counts GC activations that ran in degraded
	// mode (array column failed, rebuild behind its watermark), where
	// the cycle reclaims only to just above the low watermark.
	ThrottledGCCycles int64
	// GCScannedBlocks measures victim-selection work: index probes
	// (bucket-heap and seal-ring entries examined, plus sampling
	// draws). The reference scan the differential tests run counts
	// candidates considered instead, so the two are not comparable.
	GCScannedBlocks int64
	// GCSlices counts externally paced GC executions (GCStep calls that
	// did work); a synchronous cycle is one activation and zero slices.
	GCSlices int64
	// GCEmergencyRuns counts allocations under Config.BackgroundGC that
	// hit the emergency floor and ran a synchronous cycle inline — the
	// pacer fell behind.
	GCEmergencyRuns int64

	PerGroup []GroupMetrics
}

// WA is the write amplification factor the paper reports in Figure 8:
// (user + GC-rewritten blocks) / user blocks.
func (m *Metrics) WA() float64 {
	if m.UserBlocks == 0 {
		return 1
	}
	return float64(m.UserBlocks+m.GCBlocks) / float64(m.UserBlocks)
}

// EffectiveWA additionally charges padding and shadow traffic:
// all block writes hitting the array / user blocks.
func (m *Metrics) EffectiveWA() float64 {
	if m.UserBlocks == 0 {
		return 1
	}
	total := m.UserBlocks + m.GCBlocks + m.ShadowBlocks + m.PaddingBlocks
	return float64(total) / float64(m.UserBlocks)
}

// PaddingRatio is the fraction of array block traffic that is zero
// padding — the padding traffic ratio of Figure 9.
func (m *Metrics) PaddingRatio() float64 {
	total := m.UserBlocks + m.GCBlocks + m.ShadowBlocks + m.PaddingBlocks
	if total == 0 {
		return 0
	}
	return float64(m.PaddingBlocks) / float64(total)
}

// TotalBlocks returns all block writes issued to the array.
func (m *Metrics) TotalBlocks() int64 {
	return m.UserBlocks + m.GCBlocks + m.ShadowBlocks + m.PaddingBlocks
}

// String renders a one-line summary covering the full traffic mix,
// the derived ratios, GC activity, and persistence latency.
func (m *Metrics) String() string {
	return fmt.Sprintf("user=%d gc=%d shadow=%d pad=%d read=%d trim=%d "+
		"WA=%.3f effWA=%.3f padRatio=%.3f gcCycles=%d throttled=%d reclaimed=%d scanned=%d "+
		"latMean=%v latP99=%v latMax=%v slaViolations=%d",
		m.UserBlocks, m.GCBlocks, m.ShadowBlocks, m.PaddingBlocks,
		m.ReadBlocks, m.TrimmedBlocks,
		m.WA(), m.EffectiveWA(), m.PaddingRatio(),
		m.GCCycles, m.ThrottledGCCycles, m.SegmentsReclaimed, m.GCScannedBlocks,
		m.Latency.Mean(), m.Latency.Quantile(0.99), m.Latency.Max, m.Latency.Violations)
}
