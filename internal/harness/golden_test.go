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
// — Figures 2, 3, 8–12, the fault tables, the simulator extensions and
// the gcsched model rows — byte for byte at tinyScale, running each
// through its registry entry, so a refactor of the experiment plumbing
// cannot move a number unnoticed. Tailtrace, the gcsched live rows and
// shardscale measure wall-clock time and stay out.
// Regenerate deliberately: go test ./internal/harness -run ExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	want := []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12",
		"streams", "chunk", "sla", "victims", "latency", "fault"}
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
	opts := DefaultGCSchedOptions(s.Scale)
	model, err := gcschedModel(s.Scale, []string{"sepgc", "sepbit", PolicyADAPT}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "=== gcsched model\n%s", (&GCSchedResult{Opts: opts, Model: model}).Render())

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
