// Command adaptbench regenerates the paper's evaluation figures
// (Figures 2, 3, 8, 9, 10, 11, 12) on the trace-driven simulator and
// the concurrent prototype, printing paper-style tables.
//
// Usage:
//
//	adaptbench -exp all -scale small
//	adaptbench -exp fig8 -scale full
//	adaptbench -exp telemetry -series series.jsonl -events events.jsonl
//	adaptbench -replay series.jsonl
//	adaptbench -exp telemetry -debug localhost:6060
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"adapt/internal/cli"
	"adapt/internal/harness"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

func main() {
	cmd := cli.New("adaptbench",
		"adaptbench -exp all -scale small",
		"adaptbench -exp telemetry -series series.jsonl -events events.jsonl",
		"adaptbench -replay series.jsonl")
	fs := cmd.Flags()
	exps := harness.Experiments()
	var names []string
	for _, e := range exps {
		names = append(names, e.Name)
	}
	choices := strings.Join(append(names, "telemetry", "all"), "|")
	exp := fs.String("exp", "all", "experiment: "+choices)
	scaleName := fs.String("scale", "small", "experiment scale: small|full")
	policy := fs.String("policy", harness.PolicyADAPT, "placement policy for -exp telemetry")
	series := fs.String("series", "", "write telemetry time-series windows (JSONL) to this file")
	seriesCSV := fs.String("series-csv", "", "write telemetry time-series windows (CSV) to this file")
	events := fs.String("events", "", "write telemetry event trace (JSONL) to this file")
	debug := fs.String("debug", "", "serve live telemetry + pprof on this address (e.g. localhost:6060) and block after the run")
	replay := fs.String("replay", "", "render the stats table from a previously dumped -series JSONL file and exit")
	window := fs.Duration("window", 10*time.Millisecond, "telemetry window interval (simulated time)")
	cmd.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		cmd.Check(err)
		ws, err := telemetry.ReadWindowsJSONL(f)
		f.Close()
		cmd.Check(err)
		fmt.Print(harness.RenderWindows(fmt.Sprintf("Telemetry replay — %s (%d windows)", *replay, len(ws)), ws))
		return
	}

	var sc harness.Scale
	switch *scaleName {
	case "small":
		sc = harness.SmallScale()
	case "full":
		sc = harness.FullScale()
	default:
		cmd.UsageErrorf("unknown scale %q", *scaleName)
	}

	if *exp == "telemetry" {
		ts, res, err := harness.TelemetryRun(sc, *policy, telemetry.Options{
			WindowInterval: sim.Time(*window),
		})
		cmd.Check(err)
		ws := ts.Recorder.Windows()
		fmt.Print(harness.RenderWindows(
			fmt.Sprintf("Telemetry — %s on YCSB-A (%d windows, %d dropped)",
				res.Policy, len(ws), ts.Recorder.Dropped()), ws))
		fmt.Printf("run totals: WA %.2f, effective WA %.2f, padding %.1f%%\n\n",
			res.WA, res.EffectiveWA, 100*res.PaddingRatio)
		fmt.Print(harness.RenderEventSummary(ts.Tracer))
		for _, out := range []struct {
			path, what string
			n          int
			dump       func(io.Writer) error
		}{
			{*series, "windows", len(ws), func(w io.Writer) error { return telemetry.WriteWindowsJSONL(w, ws) }},
			{*seriesCSV, "windows", len(ws), func(w io.Writer) error { return telemetry.WriteWindowsCSV(w, ws) }},
			{*events, "events", ts.Tracer.Len(), ts.Tracer.WriteJSONL},
		} {
			if out.path != "" {
				cmd.Check(writeFile(out.path, out.dump))
				fmt.Printf("wrote %d %s to %s\n", out.n, out.what, out.path)
			}
		}
		if *debug != "" {
			_, addr, err := telemetry.Serve(*debug, ts, harness.TelemetryRoutes(ts))
			cmd.Check(err)
			fmt.Printf("serving telemetry on http://%s/ (metrics, events.jsonl, series.jsonl, debug/pprof); ctrl-c to exit\n", addr)
			select {}
		}
		return
	}

	s := &harness.Session{Scale: sc, TimeGrid: func(build func() error) error {
		fmt.Println("running experiment grid (suites × victims × policies × volumes)...")
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		fmt.Printf("grid complete in %v\n\n", time.Since(start).Round(time.Millisecond))
		return nil
	}}
	ran := false
	for _, e := range exps {
		if *exp == e.Name || (*exp == "all" && !e.Explicit) {
			ran = true
			text, err := e.Run(s)
			cmd.Check(err)
			fmt.Print(text)
		}
	}
	if !ran {
		cmd.UsageErrorf("unknown experiment %q (want %s)", *exp, choices)
	}
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
