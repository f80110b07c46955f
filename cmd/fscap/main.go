// Command fscap probes a directory's durable-path capability — the
// filesystem type backing it — and prints one JSON line. Quote it
// beside any durable-path number: an ext4 host and an overlayfs
// container do not measure the same thing (bench/README.md has the
// benchmark's rules).
//
// Usage:
//
//	fscap
//	fscap -dir /var/lib/adapt
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"adapt/internal/cli"
	"adapt/internal/segfile"
)

func main() {
	cmd := cli.New("fscap", "fscap", "fscap -dir /var/lib/adapt")
	fs := cmd.Flags()
	dir := fs.String("dir", ".", "directory to probe")
	cmd.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	out, err := json.Marshal(struct {
		Action string `json:"Action"`
		Dir    string `json:"dir"`
		segfile.Capability
	}{Action: "fscap", Dir: *dir, Capability: segfile.Probe(*dir)})
	cmd.Check(err)
	fmt.Println(string(out))
}
