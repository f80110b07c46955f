package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestExperimentsGolden pins every deterministic table adaptbench prints
// — Figures 2, 3, 8–11, the Fig 12b memory panel and the simulator
// extensions — byte for byte at tinyScale, running each through its
// registry entry, so a refactor of the experiment plumbing cannot move a
// number unnoticed. Fig 12a, fault, tailtrace, gcsched and shardscale
// measure wall-clock time and stay out.
// Regenerate deliberately: go test ./internal/harness -run ExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	want := []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11",
		"streams", "chunk", "sla", "victims", "latency"}
	s := &Session{Scale: tinyScale()}
	var b strings.Builder
	for _, e := range Experiments() {
		if !slices.Contains(want, e.Name) {
			continue
		}
		want = slices.DeleteFunc(want, func(n string) bool { return n == e.Name })
		text, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", e.Name, text)
	}
	if len(want) > 0 {
		t.Fatalf("not in the registry: %v", want)
	}
	opts := DefaultFig12Options(s.Scale)
	opts.ClientCounts = nil // 12a is wall-clock throughput
	f12, err := Fig12(s.Scale, PolicyNames(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "=== fig12b\n%s", f12.Render())

	checkGolden(t, filepath.Join("testdata", "experiments.golden"), b.String())
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs at line %d:\ngot:  %q\nwant: %q", path, i+1, gl, wl)
		}
	}
}
