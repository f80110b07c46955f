package harness

import (
	"fmt"
	"strings"
	"time"

	"adapt/internal/loadgen"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/telemetry"
)

// TailTraceOptions sizes the tail-latency attribution experiment: one
// full serving stack (engine + network server + closed-loop tenants)
// per policy, with request tracing enabled so every client-observed
// op window can be checked against the GC interference intervals the
// store publishes.
type TailTraceOptions struct {
	// LiveLoad sizes the stack and its load; Duration is the measured
	// wall-clock window per policy.
	LiveLoad
}

// DefaultTailTraceOptions sizes the experiment for the given scale:
// a quarter of the YCSB footprint, write-heavy so GC churns, and a
// window long enough for dozens of GC cycles per policy.
func DefaultTailTraceOptions(sc Scale) TailTraceOptions {
	return TailTraceOptions{LiveLoad{
		Blocks:    sc.YCSBBlocks / 4,
		Tenants:   4,
		Workers:   4,
		Duration:  1500 * time.Millisecond,
		WriteFrac: 0.9,
		Theta:     0.99,
	}}
}

// TailTraceRow is one policy's tail-attribution summary.
type TailTraceRow struct {
	Policy string
	// Ops is the completed client op count; P50/P99/P999 are
	// client-observed latencies.
	Ops  int64
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	// GCCycles and GCBusyFrac describe the interference source: cycle
	// count and the fraction of the run the store spent inside GC.
	GCCycles   int64
	GCBusyFrac float64
	// SlowOps is the op count at or above P999; SlowGCFrac the
	// fraction of those whose lifetime overlapped a GC cycle, and
	// AllGCFrac the same fraction over every op — the gap between the
	// two is GC's disproportionate share of the tail.
	SlowOps    int64
	SlowGCFrac float64
	AllGCFrac  float64
}

// TailTraceResult holds the experiment output.
type TailTraceResult struct {
	Opts TailTraceOptions
	Rows []TailTraceRow
}

// ExpTailTrace boots the full serving stack once per policy — engine,
// batching network server with tracing enabled, closed-loop zipfian
// tenants over loopback TCP — and attributes the client-observed P999
// tail to GC by overlapping each slow op's lifetime with the GC
// interference intervals the store published on the shared clock. opts
// is used as given: start from DefaultTailTraceOptions.
func ExpTailTrace(sc Scale, policies []string, opts TailTraceOptions) (*TailTraceResult, error) {
	out := &TailTraceResult{Opts: opts}
	for _, polName := range policies {
		row, err := runTailTrace(sc, polName, opts)
		if err != nil {
			return nil, fmt.Errorf("tailtrace %s: %w", polName, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func runTailTrace(sc Scale, polName string, opts TailTraceOptions) (TailTraceRow, error) {
	// The interval ring must hold every GC cycle of the run: a
	// write-heavy window can exceed the default 4096 and evictions
	// would silently drop attribution for early ops.
	ts := telemetry.New(telemetry.Options{EventCapacity: 1 << 16})
	st, err := opts.build(polName, ts, nil)
	if err != nil {
		return TailTraceRow{}, err
	}
	eng := st.Engine
	fillEnd := eng.Now() // exclude fill-phase GC from attribution

	var runEnd sim.Time
	res, err := opts.run(st, sc.Seed, 0, 0, func() { runEnd = eng.Now() })
	if err != nil {
		return TailTraceRow{}, err
	}

	// GC intervals on the engine clock, fill phase excluded; intervals
	// still open at run end are clamped by Overlap itself.
	var gcs []telemetry.Interval
	var gcBusy int64
	for _, iv := range ts.Intervals.Snapshot() {
		if iv.Kind != telemetry.IntervalGC || iv.End <= fillEnd {
			continue
		}
		gcs = append(gcs, iv)
		gcBusy += iv.Overlap(fillEnd, runEnd)
	}

	lats := loadgen.Summarize(res.Workers).All
	if len(lats) == 0 {
		return TailTraceRow{Policy: polName}, nil
	}
	p999 := stats.SortedPercentile(lats, 99.9)

	overlapsGC := func(r loadgen.Record) bool {
		for _, iv := range gcs {
			if iv.Overlap(r.Start, r.End) > 0 {
				return true
			}
		}
		return false
	}
	var slow, slowGC, allGC int64
	for _, w := range res.Workers {
		for _, r := range w.Records {
			hit := overlapsGC(r)
			if hit {
				allGC++
			}
			if float64(r.End-r.Start) >= p999 {
				slow++
				if hit {
					slowGC++
				}
			}
		}
	}

	row := TailTraceRow{
		Policy:   polName,
		Ops:      int64(len(lats)),
		P50:      time.Duration(stats.SortedPercentile(lats, 50)),
		P99:      time.Duration(stats.SortedPercentile(lats, 99)),
		P999:     time.Duration(p999),
		GCCycles: int64(len(gcs)),
		SlowOps:  slow,
	}
	if wall := int64(runEnd - fillEnd); wall > 0 {
		row.GCBusyFrac = float64(gcBusy) / float64(wall)
	}
	if slow > 0 {
		row.SlowGCFrac = float64(slowGC) / float64(slow)
	}
	row.AllGCFrac = float64(allGC) / float64(len(lats))
	return row, nil
}

// Render prints the per-policy tail-attribution table.
func (r *TailTraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tail-latency attribution — GC's share of the client P999 (%d tenants × %d workers, %.0f%% writes, %v)\n",
		r.Opts.Tenants, r.Opts.Workers, 100*r.Opts.WriteFrac, r.Opts.Duration)
	tb := stats.NewTable("policy", "ops", "p50", "p99", "p999",
		"gc-cycles", "gc-busy", "p999-ops", "p999∩gc", "all∩gc")
	for _, row := range r.Rows {
		tb.AddRow(row.Policy, row.Ops,
			row.P50.Round(time.Microsecond),
			row.P99.Round(time.Microsecond),
			row.P999.Round(time.Microsecond),
			row.GCCycles,
			fmt.Sprintf("%.1f%%", 100*row.GCBusyFrac),
			row.SlowOps,
			fmt.Sprintf("%.1f%%", 100*row.SlowGCFrac),
			fmt.Sprintf("%.1f%%", 100*row.AllGCFrac))
	}
	b.WriteString(tb.String())
	b.WriteString("p999∩gc: fraction of ops at/above the P999 whose lifetime overlapped a GC cycle; all∩gc: same over every op.\n")
	return b.String()
}
