package harness

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// TelemetryRun replays the YCSB-A sensitivity workload (medium
// density, zipfian 0.99) through one policy with telemetry attached
// and returns the populated set alongside the usual run summary. The
// recorder windows on trace time; the tracer holds the tail of the
// GC/flush/padding event stream.
func TelemetryRun(sc Scale, policy string, opts telemetry.Options) (*telemetry.Set, RunResult, error) {
	ts := telemetry.New(opts)
	res, err := RunTrace(policy, sc.ycsb(0.99, mediumGap), StoreConfig(sc.YCSBBlocks, lss.Greedy),
		lss.Deps{Telemetry: ts})
	return ts, res, err
}

// TelemetryRoutes are the debug server routes only a simulator run has
// data for: the tracer's event ring and the recorder's windows.
// adaptbench -exp telemetry -debug mounts them beside telemetry.Handler's.
func TelemetryRoutes(ts *telemetry.Set) map[string]http.Handler {
	serve := func(contentType string, write func(io.Writer) error) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", contentType)
			_ = write(w)
		})
	}
	return map[string]http.Handler{
		"/events.jsonl": serve("application/x-ndjson", ts.Tracer.WriteJSONL),
		"/series.jsonl": serve("application/x-ndjson", func(w io.Writer) error {
			return telemetry.WriteWindowsJSONL(w, ts.Recorder.Windows())
		}),
		"/series.csv": serve("text/csv", func(w io.Writer) error {
			return telemetry.WriteWindowsCSV(w, ts.Recorder.Windows())
		}),
	}
}

// RenderWindows renders a time-series table from recorder windows (or
// windows replayed from a JSONL dump): per-window write mix, derived
// WA, effective WA, padding ratio, and GC activity.
func RenderWindows(title string, ws []telemetry.Window) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %12s %12s %8s %8s %8s %8s %6s %7s %6s %5s\n",
		"win", "start(ms)", "end(ms)", "user", "gc", "shadow", "pad", "wa", "eff-wa", "pad%", "gcs")
	delta := func(w *telemetry.Window, name string) int64 {
		v, _ := w.Delta(name)
		return v
	}
	var user, gc, shadow, pad, gcs int64
	for i := range ws {
		w := &ws[i]
		d := telemetry.Derive(w)
		fmt.Fprintf(&b, "%-6d %12.2f %12.2f %8d %8d %8d %8d %6.2f %7.2f %5.1f%% %5d\n",
			w.Index,
			float64(w.Start)/float64(sim.Millisecond),
			float64(w.End)/float64(sim.Millisecond),
			delta(w, telemetry.MetricUserBlocks),
			delta(w, telemetry.MetricGCBlocks),
			delta(w, telemetry.MetricShadowBlocks),
			delta(w, telemetry.MetricPaddingBlocks),
			d.WA, d.EffectiveWA, 100*d.PaddingRatio, d.GCCycles)
		user += delta(w, telemetry.MetricUserBlocks)
		gc += delta(w, telemetry.MetricGCBlocks)
		shadow += delta(w, telemetry.MetricShadowBlocks)
		pad += delta(w, telemetry.MetricPaddingBlocks)
		gcs += d.GCCycles
	}
	// Integrate the windows back into run totals: the sums must agree
	// with the end-of-run Metrics (the telemetry tests assert this).
	total := telemetry.Window{
		Names: []string{
			telemetry.MetricGCBlocks, telemetry.MetricPaddingBlocks,
			telemetry.MetricShadowBlocks, telemetry.MetricUserBlocks,
		},
		Deltas: []int64{gc, pad, shadow, user},
	}
	d := telemetry.Derive(&total)
	fmt.Fprintf(&b, "%-6s %12s %12s %8d %8d %8d %8d %6.2f %7.2f %5.1f%% %5d\n",
		"total", "", "", user, gc, shadow, pad, d.WA, d.EffectiveWA, 100*d.PaddingRatio, gcs)
	return b.String()
}

// RenderEventSummary renders per-type counts of the traced events,
// noting how many older events the bounded ring dropped.
func RenderEventSummary(tr *telemetry.Tracer) string {
	if tr == nil {
		return "telemetry: no tracer attached\n"
	}
	events := tr.Events()
	counts := make(map[telemetry.EventType]int)
	for i := range events {
		counts[events[i].Type]++
	}
	types := make([]telemetry.EventType, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "events retained: %d (dropped %d oldest)\n", len(events), tr.Dropped())
	for _, t := range types {
		fmt.Fprintf(&b, "  %-16s %d\n", t, counts[t])
	}
	return b.String()
}
