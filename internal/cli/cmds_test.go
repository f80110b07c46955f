package cli_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adapt/internal/harness"
)

// TestCommandsRejectBadArgsUniformly builds every cmd/ binary and
// checks the shared contract: unknown flags and invalid configuration
// print usage to stderr and exit 2. adaptbench's unknown-experiment
// error must also name everything -exp accepts: every harness registry
// entry, telemetry and all.
func TestCommandsRejectBadArgsUniformly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all cmd binaries")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "adapt/cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmds: %v\n%s", err, out)
	}

	experiments := []string{"telemetry", "all"}
	for _, e := range harness.Experiments() {
		experiments = append(experiments, e.Name)
	}
	// Rows whose error line (stderr's first) must also name each word.
	mentions := map[string][]string{"adaptbench -exp bogus": experiments}
	cases := []struct {
		bin  string
		args []string
	}{
		// Unknown flag: the flag package path.
		{"adaptsim", []string{"-definitely-not-a-flag"}},
		{"adaptbench", []string{"-definitely-not-a-flag"}},
		{"tracegen", []string{"-definitely-not-a-flag"}},
		{"traceinfo", []string{"-definitely-not-a-flag"}},
		{"adaptserve", []string{"-definitely-not-a-flag"}},
		{"adaptload", []string{"-definitely-not-a-flag"}},
		{"nbdload", []string{"-definitely-not-a-flag"}},
		// Invalid configuration: the post-parse validation path.
		{"adaptsim", []string{"-policy", "bogus"}},
		{"adaptsim", []string{"-victim", "bogus"}},
		{"adaptbench", []string{"-scale", "bogus"}},
		{"adaptbench", []string{"-exp", "bogus"}},
		{"tracegen", []string{"-profile", "bogus"}},
		{"traceinfo", []string{}}, // no trace files
		{"traceinfo", []string{"-format", "bogus", "ignored.bin"}},
		{"adaptserve", []string{"-volumes", "0"}},
		{"adaptserve", []string{"-victim", "bogus"}},
		{"adaptserve", []string{"-nbd-max-req-kib", "-1"}},
		{"adaptserve", []string{"-nbd-max-req-kib", "64"}}, // requires -nbd-addr
		{"adaptload", []string{"-write-frac", "2"}},
		{"adaptload", []string{"-tenants", "0"}},
		{"nbdload", []string{"-write-frac", "2"}},
		{"nbdload", []string{"-unaligned", "2"}},
		{"nbdload", []string{"-workers", "0"}},
	}
	for _, tc := range cases {
		name := tc.bin + " " + strings.Join(tc.args, " ")
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, tc.bin), tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v (stdout %q)", err, stdout.String())
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit code %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "usage:") {
				t.Fatalf("stderr missing usage:\n%s", stderr.String())
			}
			if strings.Contains(stdout.String(), "usage:") {
				t.Fatalf("usage printed to stdout, want stderr:\n%s", stdout.String())
			}
			msg, _, _ := strings.Cut(stderr.String(), "\n")
			for _, w := range mentions[name] {
				if !strings.Contains(msg, w) {
					t.Errorf("error line does not name %q: %s", w, msg)
				}
			}
		})
	}
}
