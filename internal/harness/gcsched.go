package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/loadgen"
	"adapt/internal/prototype"
	"adapt/internal/stats"
)

// GCSchedOptions sizes the tail-latency-aware GC scheduling
// experiment: one closed-loop load run twice per policy — once with the
// classic synchronous watermark GC, once with background GC paced by
// the gcsched controller — so the client-observed tail and the write
// amplification can be compared directly. The model rows run it on
// prototype.Run's virtual clock, the live rows through a served stack.
type GCSchedOptions struct {
	// LiveLoad sizes the stack and its load; Duration is a hard
	// wall-clock cap per mode in case a run wedges.
	LiveLoad
	// OpsPerWorker fixes each worker's op count, so the sync and
	// background runs see identical traffic and their write
	// amplification is directly comparable.
	OpsPerWorker int
	// ThinkTime is each worker's mean inter-op gap (exponentially
	// distributed). It sets the operating point: zero means a fully
	// saturated closed loop where GC work displaces foreground work
	// one-for-one and scheduling cannot help; the default leaves the
	// array at high-but-not-total utilization, the regime the paper's
	// tail comparison targets.
	ThinkTime time.Duration
	// ServiceTime is the model rows' per-chunk device time on Run's
	// virtual clock; the live rows serve an engine with no device model.
	ServiceTime time.Duration
	// SliceUnits is the pacer's per-slice relocation budget.
	SliceUnits int
	// Interval is the pacer tick.
	Interval time.Duration
	// TargetP999, when positive, arms the tail-latency backoff signal
	// (the server's traced p999 feeds the controller).
	TargetP999 time.Duration
}

// DefaultGCSchedOptions sizes the experiment for the given scale:
// write-heavy at full utilization so synchronous GC stalls dominate
// the tail, and a pacer tick fast enough to keep small stores off the
// emergency floor.
func DefaultGCSchedOptions(sc Scale) GCSchedOptions {
	return GCSchedOptions{
		LiveLoad: LiveLoad{
			// 4× the YCSB footprint: segments are then large enough
			// (StoreConfig scales them with capacity) that one
			// synchronous watermark cycle relocates tens of chunks inline
			// — the stop-the-world stall the pacer exists to break up.
			Blocks:    sc.YCSBBlocks * 4,
			Tenants:   2,
			Workers:   4,
			Duration:  60 * time.Second,
			WriteFrac: 0.9,
			Theta:     0.8,
		},
		OpsPerWorker: 4000,
		ThinkTime:    300 * time.Microsecond,
		ServiceTime:  time.Millisecond,
		SliceUnits:   32,
		Interval:     50 * time.Microsecond,
		TargetP999:   2 * time.Millisecond,
	}
}

// GCSchedRow is one (policy, mode) cell of the comparison.
type GCSchedRow struct {
	Policy string
	// Mode is "sync" or "background".
	Mode string
	// Ops is the completed client op count; P50/P99/P999 are
	// client-observed latencies on the engine clock.
	Ops  int64
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	// WA is the measured-phase write amplification (fill excluded).
	WA float64
	// GCCycles/GCSlices/EmergencyRuns are measured-phase store GC
	// counters; the pacer fields are the controller's own totals
	// (background mode only).
	GCCycles      int64
	GCSlices      int64
	EmergencyRuns int64
	PacerSlices   int64
	TailSkips     int64
	QueueSkips    int64
	// GC is GC's share of the run's clock and of its tail (model rows
	// only).
	GC prototype.GCShare
	// TailCauses summarizes the attributed dominant causes of the
	// slowest traced exemplars (count by cause, descending; live rows
	// only).
	TailCauses string
}

// GCSchedResult holds the experiment output: the deterministic
// comparison on prototype.Run's virtual clock (Model) and the live
// serving-stack run (Rows). The model rows are exactly reproducible and
// carry the headline numbers; the live rows demonstrate the same effect
// through the full TCP stack, subject to host scheduling noise.
type GCSchedResult struct {
	Opts  GCSchedOptions
	Model []GCSchedRow
	Rows  []GCSchedRow
}

// ExpGCSched runs the synchronous-versus-background GC comparison for
// each policy: identical stack, identical load, only the GC scheduling
// mode differs. opts is used as given: start from DefaultGCSchedOptions.
func ExpGCSched(sc Scale, policies []string, opts GCSchedOptions) (*GCSchedResult, error) {
	model, err := gcschedModel(sc, policies, opts)
	if err != nil {
		return nil, err
	}
	out := &GCSchedResult{Opts: opts, Model: model}
	for _, polName := range policies {
		for _, background := range []bool{false, true} {
			row, err := runGCSchedMode(sc, polName, opts, background)
			if err != nil {
				return nil, fmt.Errorf("gcsched %s (background=%v): %w", polName, background, err)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// gcschedModel runs the comparison as prototype.Run calls: the same
// closed-loop load, on Run's virtual clock over the real engine, with
// background GC driven by the same pacer the server runs.
func gcschedModel(sc Scale, policies []string, opts GCSchedOptions) ([]GCSchedRow, error) {
	var rows []GCSchedRow
	for _, polName := range policies {
		for _, background := range []bool{false, true} {
			clients := opts.Tenants * opts.Workers
			res, err := runPrototype(polName, opts.Blocks, opts.ServiceTime, background, prototype.Config{
				Clients:   clients,
				Ops:       int64(clients * opts.OpsPerWorker),
				Theta:     opts.Theta,
				ReadRatio: 1 - opts.WriteFrac,
				Think:     opts.ThinkTime,
				Seed:      sc.Seed,
				GC:        gcsched.Config{Interval: opts.Interval, SliceUnits: opts.SliceUnits, TargetP999: opts.TargetP999},
			})
			if err != nil {
				return nil, fmt.Errorf("gcsched model %s (background=%v): %w", polName, background, err)
			}
			row := gcschedRow(polName, background, res.Pacer, res.Measured)
			row.Ops, row.P50, row.P99, row.P999 = int64(clients*opts.OpsPerWorker), res.P50, res.P99, res.P999
			row.GC = res.GC
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runGCSchedMode(sc Scale, polName string, opts GCSchedOptions, background bool) (GCSchedRow, error) {
	var gc *gcsched.Config
	if background {
		gc = &gcsched.Config{
			Interval:   opts.Interval,
			SliceUnits: opts.SliceUnits,
			TargetP999: opts.TargetP999,
		}
	}
	st, err := opts.build(polName, gc)
	if err != nil {
		return GCSchedRow{}, err
	}
	eng := st.Engine
	if background {
		// The fill loop ran without a pacer, so the background store
		// ends it near the emergency floor. Settle the pool to the high
		// watermark before the baseline snapshot, or the measured phase
		// would be charged for rebuilding the fill phase's deficit and
		// the WA comparison against sync would be skewed.
		for _, sh := range eng.GCShards() {
			for sh.GCNeeded() {
				sh.GCStep(1 << 20)
			}
		}
	}
	st0 := eng.Stats() // fill-phase baseline

	var st1 prototype.EngineStats
	causes := map[string]int{}
	res, err := opts.run(st, sc.Seed, opts.OpsPerWorker, opts.ThinkTime, func() {
		if st.GC != nil {
			st.GC.Stop()
		}
		// Attribute the slowest traced requests before the connections
		// are torn down, while the per-connection span rings are live.
		for _, ex := range st.Server.TraceSnapshot(int64(time.Millisecond), 64) {
			causes[ex.Cause]++
		}
		st1 = eng.Stats() // before Shutdown's drain pads the open chunks
	})
	if err != nil {
		return GCSchedRow{}, err
	}

	var pacer gcsched.Stats
	if background {
		pacer = st.GC.Stats()
	}
	row := gcschedRow(polName, background, pacer, prototype.Traffic{
		UserBlocks: st1.UserBlocks - st0.UserBlocks, GCBlocks: st1.GCBlocks - st0.GCBlocks,
		GCCycles: st1.GCCycles - st0.GCCycles, GCSlices: st1.GCSlices - st0.GCSlices,
		GCEmergencyRuns: st1.GCEmergencyRuns - st0.GCEmergencyRuns,
	})
	lats := loadgen.Summarize(res.Workers).All
	row.Ops = int64(len(lats))
	if len(lats) > 0 {
		slices.Sort(lats)
		row.P50 = time.Duration(stats.SortedPercentile(lats, 50))
		row.P99 = time.Duration(stats.SortedPercentile(lats, 99))
		row.P999 = time.Duration(stats.SortedPercentile(lats, 99.9))
	}
	var ranked []string
	for c := range causes {
		ranked = append(ranked, c)
	}
	slices.SortFunc(ranked, func(a, b string) int {
		return cmp.Or(cmp.Compare(causes[b], causes[a]), cmp.Compare(a, b))
	})
	for i, c := range ranked {
		ranked[i] = fmt.Sprintf("%s×%d", c, causes[c])
	}
	row.TailCauses = strings.Join(ranked, " ")
	return row, nil
}

// gcschedRow assembles what the model and the live rows share: the
// measured phase's WA and GC counters, and in background mode the
// pacer's totals. The caller fills in the op count and latencies.
func gcschedRow(polName string, background bool, pacer gcsched.Stats, d prototype.Traffic) GCSchedRow {
	row := GCSchedRow{Policy: polName, Mode: "sync", WA: d.WA(),
		GCCycles: d.GCCycles, GCSlices: d.GCSlices, EmergencyRuns: d.GCEmergencyRuns}
	if background {
		row.Mode = "background"
		row.PacerSlices, row.TailSkips, row.QueueSkips = pacer.Slices, pacer.TailSkips, pacer.QueueSkips
	}
	return row
}

// GCSchedDeltas summarizes one policy's sync-versus-background pair:
// the relative p999 change and the relative WA change, both in
// percent (negative p999 means the background tail is lower).
type GCSchedDeltas struct {
	Policy  string
	P999Pct float64
	WAPct   float64
}

// GCSchedPairDeltas computes the per-policy headline numbers for a row
// set laid out as (sync, background) pairs.
func GCSchedPairDeltas(rows []GCSchedRow) []GCSchedDeltas {
	var out []GCSchedDeltas
	for i := 0; i+1 < len(rows); i += 2 {
		syncRow, bgRow := rows[i], rows[i+1]
		if syncRow.Policy != bgRow.Policy || syncRow.P999 == 0 {
			continue
		}
		d := GCSchedDeltas{Policy: syncRow.Policy}
		d.P999Pct = 100 * (float64(bgRow.P999)/float64(syncRow.P999) - 1)
		if syncRow.WA > 0 {
			d.WAPct = 100 * (bgRow.WA/syncRow.WA - 1)
		}
		out = append(out, d)
	}
	return out
}

// renderGCSchedRows prints a row table: the model's rows end with GC's
// share of the clock and of the tail (prototype.GCShare), the live rows
// with the causes of their slowest traced requests.
func renderGCSchedRows(b *strings.Builder, rows []GCSchedRow, live bool) {
	cols := []string{"policy", "mode", "ops", "p50", "p99", "p999", "WA",
		"gc-cycles", "gc-slices", "emergency", "pacer", "tail-skip", "queue-skip"}
	if live {
		cols = append(cols, "tail-causes")
	} else {
		cols = append(cols, "gc-busy", "p999∩gc", "all∩gc")
	}
	tb := stats.NewTable(cols...)
	for _, row := range rows {
		cells := []any{row.Policy, row.Mode, row.Ops,
			row.P50.Round(time.Microsecond),
			row.P99.Round(time.Microsecond),
			row.P999.Round(time.Microsecond),
			fmt.Sprintf("%.3f", row.WA),
			row.GCCycles, row.GCSlices, row.EmergencyRuns,
			row.PacerSlices, row.TailSkips, row.QueueSkips}
		if live {
			cells = append(cells, row.TailCauses)
		} else {
			cells = append(cells, percent(row.GC.Busy), percent(row.GC.Tail), percent(row.GC.All))
		}
		tb.AddRow(cells...)
	}
	b.WriteString(tb.String())
	for _, d := range GCSchedPairDeltas(rows) {
		fmt.Fprintf(b, "%s: p999 %+.1f%% (background vs sync), WA %+.2f%%\n",
			d.Policy, d.P999Pct, d.WAPct)
	}
}

func percent(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// Render prints the sync-versus-background comparison: the
// deterministic virtual-clock table first (headline numbers), then
// the live serving-stack run.
func (r *GCSchedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tail-latency-aware GC — synchronous vs background-paced (%d tenants × %d workers × %d ops, %.0f%% writes, think %v, slice %d units)\n",
		r.Opts.Tenants, r.Opts.Workers, r.Opts.OpsPerWorker, 100*r.Opts.WriteFrac, r.Opts.ThinkTime, r.Opts.SliceUnits)
	if len(r.Model) > 0 {
		b.WriteString("\nModelled tail (prototype.Run on its virtual clock: real engine, real pacer):\n")
		renderGCSchedRows(&b, r.Model, false)
	}
	if len(r.Rows) > 0 {
		b.WriteString("\nLive serving stack (wall clock — subject to host scheduling noise):\n")
		renderGCSchedRows(&b, r.Rows, true)
	}
	return b.String()
}
