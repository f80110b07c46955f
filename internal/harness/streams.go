package harness

import (
	"fmt"

	"adapt/internal/ftl"
	"adapt/internal/lss"
	"adapt/internal/stats"
)

// StreamsRow reports the in-device write amplification of one policy
// with and without group→stream mapping (§3.1's multi-stream claim).
type StreamsRow struct {
	Policy       string
	SingleWA     float64 // all chunks on one stream
	MultiWA      float64 // one stream per group
	ReductionPct float64
}

// ExpStreams replays a YCSB-A workload through each policy twice —
// once feeding a single-stream SSD model, once with groups mapped to
// device streams one-to-one — and reports the device-internal WA.
// Chunk writes address the device at the array's physical segment
// locations, so segment reuse produces page invalidations exactly as
// the real device would see them.
func ExpStreams(sc Scale, policies []string) ([]StreamsRow, error) {
	tr := sc.ycsb(0.99, mediumGap)
	cfg := StoreConfig(sc.YCSBBlocks, lss.Greedy)
	segPages := int64(cfg.SegmentBlocks())
	rows := make([]StreamsRow, 0, len(policies))
	for _, polName := range policies {
		// The policy's group count sizes the device and its streams.
		pol, err := BuildPolicy(polName, cfg)
		if err != nil {
			return nil, err
		}
		waOf := func(streams int) (float64, error) {
			dev := ftl.NewDevice(ftl.Config{
				UserPages:     int64(cfg.TotalSegments(pol.Groups())) * segPages,
				PagesPerBlock: 256,
				OverProvision: 0.07,
				Streams:       streams,
			})
			var sinkErr error
			sink := func(w lss.ChunkWrite) {
				base := int64(w.Segment)*segPages + int64(w.Chunk)*int64(cfg.ChunkBlocks)
				for p := int64(0); p < int64(cfg.ChunkBlocks); p++ {
					if err := dev.Write(base+p, int(w.Group)); err != nil && sinkErr == nil {
						sinkErr = err
					}
				}
			}
			if _, err := RunTrace(polName, tr, cfg, lss.Deps{Sink: sink}); err != nil {
				return 0, err
			}
			return dev.Metrics().WA(), sinkErr
		}
		single, err := waOf(1)
		if err != nil {
			return nil, fmt.Errorf("streams %s single: %w", polName, err)
		}
		multi, err := waOf(pol.Groups())
		if err != nil {
			return nil, fmt.Errorf("streams %s multi: %w", polName, err)
		}
		row := StreamsRow{Policy: polName, SingleWA: single, MultiWA: multi}
		if single > 0 {
			row.ReductionPct = 100 * (single - multi) / single
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderStreams prints the multi-stream experiment table.
func RenderStreams(rows []StreamsRow) string {
	tb := stats.NewTable("policy", "singleStreamWA", "multiStreamWA", "reduction%")
	for _, r := range rows {
		tb.AddRow(r.Policy, r.SingleWA, r.MultiWA, r.ReductionPct)
	}
	return "Extension — in-device WA with group→stream mapping (§3.1)\n" + tb.String()
}
