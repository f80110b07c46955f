package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestExperimentsGolden pins every table adaptbench prints under -exp
// all — Figures 2, 3, 8–12, the fault tables and the simulator
// extensions — plus the gcsched model rows, byte for byte at tinyScale.
// It runs every row of Experiments() that is not Explicit, so -exp all
// cannot print a table the golden does not pin, and a refactor of the
// experiment plumbing cannot move a number unnoticed. The gcsched live
// rows (explicit-only) run on the wall clock and stay out.
// Regenerate deliberately: go test ./internal/harness -run ExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	s := &Session{Scale: tinyScale()}
	var b strings.Builder
	for _, e := range Experiments() {
		if e.Explicit {
			continue
		}
		text, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", e.Name, text)
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
