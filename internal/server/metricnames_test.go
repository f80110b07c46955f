// The golden test lives in the external test package so it can
// register both frontends — internal/nbd imports internal/server, so
// an in-package test could not boot the NBD frontend without a cycle.
package server_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/serve"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// labelValue matches the ="N" part of an indexed metric family
// instance, e.g. lss_group_blocks_total{group="2"}.
var labelValue = regexp.MustCompile(`="[^"]*"`)

// families normalizes a registry's names to one sorted entry per
// metric family.
func families(reg *telemetry.Registry) string {
	seen := make(map[string]bool)
	var fams []string
	for _, name := range reg.Names() {
		fam := labelValue.ReplaceAllString(name, "")
		if !seen[fam] {
			seen[fam] = true
			fams = append(fams, fam)
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, "\n") + "\n"
}

// TestMetricNamesGolden pins the served metric namespace: it builds,
// through serve.Build as adaptserve does, the fullest stack that binary
// can serve (2-shard durable engine + ADAPT policy per shard + GC pacer
// + traced server + NBD frontend, so every family it can register
// does), normalizes indexed instances to one entry per family, and
// diffs against the committed golden list. The adapt_*
// policy families are not in that stack — only the simulator and
// prototype.Run wire a policy's telemetry — so a second block pins
// them through the same SetTelemetry call those paths make, on a
// scratch set. (The proto_degraded_* fault families register only on
// prototype.Run's fault path and are pinned by its own tests.) A
// rename, addition, or removal anywhere fails here until the golden
// file — and with it DESIGN.md's metric table — is updated deliberately
// (go test ./internal/server -run MetricNames -update).
func TestMetricNamesGolden(t *testing.T) {
	newPolicy := func(cfg lss.Config) *adaptcore.Policy {
		return adaptcore.New(adaptcore.Config{
			UserBlocks:    cfg.UserBlocks,
			SegmentBlocks: cfg.SegmentBlocks(),
			ChunkBlocks:   cfg.ChunkBlocks,
			OverProvision: cfg.OverProvision,
		}, adaptcore.Options{SampleRate: 0.5})
	}
	ts := telemetry.New(telemetry.Options{})
	st, err := serve.Build(serve.Config{
		Engine: prototype.ShardedConfig{
			Engine: prototype.EngineConfig{
				Store: lss.Config{
					BlockSize:     64,
					ChunkBlocks:   8,
					SegmentChunks: 4,
					UserBlocks:    4096,
					OverProvision: 0.25,
				},
				ServiceTime: time.Microsecond,
				Telemetry:   ts,
				Durable:     &segfile.Options{Sync: segfile.SyncOnSeal},
			},
			Shards: 2,
			PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
				return newPolicy(scfg), nil
			},
		},
		Server: server.Config{Volumes: 2, Trace: server.TraceConfig{Enabled: true}},
		GC:     &gcsched.Config{},
		NBD:    &nbd.Config{},
		// A durable root registers the lss_durable_* families; the
		// golden pins them alongside the rest of the namespace.
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown(context.Background())
	eng := st.Engine
	scratch := telemetry.New(telemetry.Options{})
	newPolicy(eng.Config()).SetTelemetry(scratch)
	got := "# served by adaptserve\n" + families(ts.Registry) +
		"# policy telemetry: simulator and prototype.Run only\n" + families(scratch.Registry)

	goldenPath := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric families drifted from %s (run with -update after syncing DESIGN.md):\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}
