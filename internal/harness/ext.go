package harness

import (
	"fmt"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/trace"
)

// Extension experiments beyond the paper's figures: sensitivity of the
// padding/WA trade-off to the array chunk size (the paper fixes 64 KiB,
// the Linux mdraid default) and to the SLA coalescing window (the
// paper fixes Pangu's 100 µs), plus victim-policy comparisons across
// the related-work Greedy variants.

// SweepCell is one cell of a sensitivity sweep (Figure 11 and the
// extensions): one policy's traffic under one setting.
type SweepCell struct {
	Policy  string
	Setting string
	WA      float64 // padding-inclusive
	GCWA    float64
	PadRat  float64
}

// setting is one row of a sweep: a store configuration and the trace it
// replays.
type setting struct {
	name string
	cfg  lss.Config
	tr   *trace.Trace
}

// sweep replays every setting under every policy through RunTrace on
// the shared pool and returns the cells setting-major, policies in the
// order given.
func sweep(policies []string, settings ...setting) ([]SweepCell, error) {
	cells := make([]SweepCell, len(settings)*len(policies))
	err := parallel(len(cells), func(i int) error {
		s, pol := settings[i/len(policies)], policies[i%len(policies)]
		res, err := RunTrace(pol, s.tr, s.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		cells[i] = SweepCell{Policy: pol, Setting: s.name, WA: res.EffectiveWA, GCWA: res.WA, PadRat: res.PaddingRatio}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// ExpChunkSize sweeps the array chunk size: larger chunks mean larger
// error-correction units (paper §2.2) but more padding under sparse
// writes — the granularity-mismatch trade-off that motivates ADAPT.
func ExpChunkSize(sc Scale, policies []string) ([]SweepCell, error) {
	tr := sc.ycsb(0.99, mediumGap)
	var settings []setting
	for _, chunkKiB := range []int{16, 32, 64, 128} {
		cfg := StoreConfig(sc.YCSBBlocks, lss.Greedy)
		// Hold the segment size in blocks constant while the chunk
		// size varies, so only the coalescing granularity changes.
		segBlocks := cfg.SegmentBlocks()
		cfg.ChunkBlocks = chunkKiB * 1024 / cfg.BlockSize
		cfg.SegmentChunks = segBlocks / cfg.ChunkBlocks
		if cfg.SegmentChunks < 2 {
			cfg.SegmentChunks = 2
		}
		settings = append(settings, setting{fmt.Sprintf("chunk=%dKiB", chunkKiB), cfg, tr})
	}
	return sweep(policies, settings...)
}

// ExpSLAWindow sweeps the coalescing deadline: longer windows gather
// more blocks per chunk at the cost of write latency.
func ExpSLAWindow(sc Scale, policies []string) ([]SweepCell, error) {
	tr := sc.ycsb(0.99, mediumGap)
	var settings []setting
	for _, winUS := range []int{20, 50, 100, 200, 500} {
		cfg := StoreConfig(sc.YCSBBlocks, lss.Greedy)
		cfg.SLAWindow = sim.Time(winUS) * sim.Microsecond
		settings = append(settings, setting{fmt.Sprintf("sla=%dus", winUS), cfg, tr})
	}
	return sweep(policies, settings...)
}

// ExpVictims compares all victim-selection policies under one
// placement policy.
func ExpVictims(sc Scale, policies []string) ([]SweepCell, error) {
	tr := sc.ycsb(0.99, mediumGap)
	var settings []setting
	for _, v := range []lss.VictimPolicy{
		lss.Greedy, lss.CostBenefit, lss.DChoices, lss.WindowedGreedy, lss.RandomGreedy,
	} {
		settings = append(settings, setting{v.String(), StoreConfig(sc.YCSBBlocks, v), tr})
	}
	return sweep(policies, settings...)
}

// RenderExt prints an extension sweep table.
func RenderExt(title string, cells []SweepCell) string {
	tb := stats.NewTable("setting", "policy", "WA", "gcWA", "pad ratio")
	for _, c := range cells {
		tb.AddRow(c.Setting, c.Policy, c.WA, c.GCWA, c.PadRat)
	}
	return title + "\n" + tb.String()
}

// LatencyCell is one row of the persistence-latency experiment.
type LatencyCell struct {
	Policy     string
	MeanUS     float64
	P99US      float64
	Violations int64
}

// ExpLatency measures user-block persistence latency per policy on a
// medium-density YCSB-A stream. The SLA window bounds every sample by
// construction; the distribution below it shows how long writes sit in
// open chunks: schemes that split user writes across more groups hold
// blocks longer, and ADAPT's lazy-append hot chunks push hot blocks to
// the deadline while shadow copies keep them durable.
func ExpLatency(sc Scale, policies []string) ([]LatencyCell, error) {
	tr := sc.ycsb(0.99, mediumGap)
	var out []LatencyCell
	for _, pol := range policies {
		res, err := RunTrace(pol, tr, StoreConfig(sc.YCSBBlocks, lss.Greedy))
		if err != nil {
			return nil, fmt.Errorf("latency: %w", err)
		}
		l := res.Latency
		out = append(out, LatencyCell{
			Policy:     pol,
			MeanUS:     float64(l.Mean()) / float64(sim.Microsecond),
			P99US:      float64(l.Quantile(0.99)) / float64(sim.Microsecond),
			Violations: l.Violations,
		})
	}
	return out, nil
}

// RenderLatency prints the latency experiment table.
func RenderLatency(cells []LatencyCell) string {
	tb := stats.NewTable("policy", "mean µs", "p99 µs", "violations")
	for _, c := range cells {
		tb.AddRow(c.Policy, c.MeanUS, c.P99US, c.Violations)
	}
	return "Extension — persistence latency under the 100 µs SLA (YCSB-A, medium density)\n" + tb.String()
}
