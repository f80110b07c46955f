package prototype

import (
	"testing"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
)

// TestTrafficDecomposition logs the per-policy traffic split under the
// Figure 12a regime so regressions in the prototype's competitive
// behaviour are visible in -v output.
func TestTrafficDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("decomposition run is slow")
	}
	const blocks = 16 << 10
	cfg := lss.Config{
		BlockSize:     4096,
		ChunkBlocks:   16,
		SegmentChunks: 4,
		DataColumns:   3,
		UserBlocks:    blocks,
		OverProvision: 0.15,
		SLAWindow:     100 * sim.Microsecond,
	}
	mk := func(name string) lss.Policy {
		p, err := placement.Build(name, cfg, adaptcore.Options{SampleRate: 0.125})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, name := range []string{"sepgc", "sepbit", "adapt"} {
		res, err := Run(Config{
			Engine: EngineConfig{
				Store:       cfg,
				Policy:      mk(name),
				Fill:        true,
				ServiceTime: 20 * time.Microsecond,
				QueueDepth:  8,
			},
			Clients: 4,
			Ops:     8 * blocks,
			Theta:   0.99,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-8s ops/s=%.0f gcWA=%.3f effWA=%.3f user=%d gc=%d shadow=%d pad=%d",
			name, res.OpsPerSec, res.WA, res.EffectiveWA,
			res.UserBlocks, res.GCBlocks, res.ShadowBlocks, res.PaddingBlocks)
	}
}
