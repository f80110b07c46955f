package harness

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"adapt/internal/fault"
	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/workload"
)

// GCSchedOptions sizes the tail-latency-aware GC scheduling
// experiment: the same serving stack and closed-loop load as the
// tail-attribution experiment, run twice per policy — once with the
// classic synchronous watermark GC, once with background GC paced by
// the gcsched controller — so the client-observed tail and the write
// amplification can be compared directly.
type GCSchedOptions struct {
	// Blocks is the store footprint; the engine pre-fills it so GC is
	// active from the first op.
	Blocks int64
	// Tenants is the volume/connection count; Workers the closed-loop
	// pipelined workers per tenant.
	Tenants int
	Workers int
	// OpsPerWorker fixes each worker's op count, so the sync and
	// background runs see identical traffic and their write
	// amplification is directly comparable.
	OpsPerWorker int
	// Duration is a hard wall-clock cap per mode in case a run wedges.
	Duration time.Duration
	// WriteFrac and Theta shape the workload.
	WriteFrac float64
	Theta     float64
	// ServiceTime is the modelled per-chunk device time.
	ServiceTime time.Duration
	// ThinkTime is each worker's mean inter-op gap (exponentially
	// distributed). It sets the operating point: zero means a fully
	// saturated closed loop where GC work displaces foreground work
	// one-for-one and scheduling cannot help; the default leaves the
	// array at high-but-not-total utilization, the regime the paper's
	// tail comparison targets.
	ThinkTime time.Duration
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
		// 4× the YCSB footprint: segments are then large enough
		// (StoreConfig scales them with capacity) that one synchronous
		// watermark cycle relocates tens of chunks inline — the
		// stop-the-world stall the pacer exists to break up.
		Blocks:       sc.YCSBBlocks * 4,
		Tenants:      2,
		Workers:      4,
		OpsPerWorker: 4000,
		Duration:     60 * time.Second,
		WriteFrac:    0.9,
		Theta:        0.8,
		ServiceTime:  time.Millisecond,
		ThinkTime:    300 * time.Microsecond,
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
	// TailCauses summarizes the attributed dominant causes of the
	// slowest traced exemplars (count by cause, descending).
	TailCauses string
}

// GCSchedResult holds the experiment output: the deterministic
// virtual-clock comparison (Model) and the live serving-stack run
// (Rows). The model rows are exactly reproducible and carry the
// headline numbers; the live rows demonstrate the same effect through
// the full TCP stack, subject to host scheduling noise.
type GCSchedResult struct {
	Opts  GCSchedOptions
	Model []GCSchedRow
	Rows  []GCSchedRow
}

// ExpGCSched runs the synchronous-versus-background GC comparison for
// each policy: identical stack, identical load, only the GC scheduling
// mode differs.
func ExpGCSched(sc Scale, policies []string, opts GCSchedOptions) (*GCSchedResult, error) {
	if opts.Blocks <= 0 {
		opts.Blocks = sc.YCSBBlocks / 4
	}
	if opts.Tenants <= 0 {
		opts.Tenants = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.OpsPerWorker <= 0 {
		opts.OpsPerWorker = 2000
	}
	if opts.Duration <= 0 {
		opts.Duration = 30 * time.Second
	}
	if opts.SliceUnits <= 0 {
		opts.SliceUnits = 32
	}
	if opts.Interval <= 0 {
		opts.Interval = 200 * time.Microsecond
	}
	out := &GCSchedResult{Opts: opts}
	for _, polName := range policies {
		for _, background := range []bool{false, true} {
			row, err := runGCSchedModel(sc, polName, opts, background)
			if err != nil {
				return nil, fmt.Errorf("gcsched model %s (background=%v): %w", polName, background, err)
			}
			out.Model = append(out.Model, row)
		}
	}
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

func runGCSchedMode(sc Scale, polName string, opts GCSchedOptions, background bool) (GCSchedRow, error) {
	cfg := StoreConfig(opts.Blocks, 0)
	cfg.BackgroundGC = background
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: opts.ServiceTime,
			Fill:        true,
		},
		Shards: 1,
		PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
			return BuildPolicy(polName, scfg)
		},
	})
	if err != nil {
		return GCSchedRow{}, err
	}
	defer eng.Close()
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

	var ctl *gcsched.Controller
	var srv *server.Server
	srvCfg := server.Config{
		Engine:  eng,
		Volumes: opts.Tenants,
		// No group commit: the batch window would floor both modes'
		// tails and hide the GC stall this experiment measures.
		// Trace in both modes so the sync baseline carries the same
		// instrumentation overhead as the paced run it is compared to.
		Trace: server.TraceConfig{Enabled: true},
	}
	if background {
		gcfg := gcsched.Config{
			Interval:   opts.Interval,
			SliceUnits: opts.SliceUnits,
			QueueFill:  eng.QueueFill,
		}
		if opts.TargetP999 > 0 {
			gcfg.TargetP999 = opts.TargetP999
			// srv is assigned below, before ctl.Start spawns the only
			// reader of this closure.
			gcfg.P999 = func() time.Duration { return srv.TailP999() }
		}
		shards := eng.GCShards()
		sh := make([]gcsched.Shard, len(shards))
		for i, s := range shards {
			sh[i] = s
		}
		ctl, err = gcsched.New(gcfg, sh)
		if err != nil {
			return GCSchedRow{}, err
		}
		srvCfg.GCSched = ctl
	}
	srv, err = server.New(srvCfg)
	if err != nil {
		return GCSchedRow{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return GCSchedRow{}, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	if ctl != nil {
		ctl.Start()
	}

	span := srv.VolumeBlocks()
	payloadBytes := int(cfg.BlockSize)
	records := make([][]opRecord, opts.Tenants*opts.Workers)
	var wg sync.WaitGroup
	var runErr error
	var errOnce sync.Once
	deadline := time.Now().Add(opts.Duration)
	for t := 0; t < opts.Tenants; t++ {
		c, err := server.Dial(ln.Addr().String(), uint32(t))
		if err != nil {
			ln.Close()
			if ctl != nil {
				ctl.Stop()
			}
			return GCSchedRow{}, err
		}
		c.SetBlockBytes(payloadBytes)
		defer c.Close()
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(c *server.Client, recs *[]opRecord, seed uint64) {
				defer wg.Done()
				rng := sim.NewRNG(seed)
				zipf := workload.NewZipf(rng, span, opts.Theta, true)
				payload := make([]byte, payloadBytes)
				for i := range payload {
					payload[i] = byte(rng.Intn(256))
				}
				bo := fault.Backoff{}
				for n := 0; n < opts.OpsPerWorker && time.Now().Before(deadline); n++ {
					if opts.ThinkTime > 0 {
						// Exponential think time: bursty arrivals at a
						// controlled mean utilization.
						gap := -math.Log(1-rng.Float64()) * float64(opts.ThinkTime)
						time.Sleep(time.Duration(gap))
					}
					lba := zipf.Next()
					write := rng.Float64() < opts.WriteFrac
					t0 := eng.Now()
					var err error
					for attempt := 0; ; attempt++ {
						if write {
							err = c.Write(lba, payload)
						} else {
							_, err = c.Read(lba, 1)
						}
						if !errors.Is(err, server.ErrBackpressure) {
							break
						}
						time.Sleep(bo.Delay(attempt))
					}
					if err != nil {
						errOnce.Do(func() { runErr = err })
						return
					}
					*recs = append(*recs, opRecord{start: t0, end: eng.Now()})
				}
			}(c, &records[t*opts.Workers+w], sc.Seed+uint64(t*1000+w))
		}
	}
	wg.Wait()
	if ctl != nil {
		ctl.Stop()
	}
	// Attribute the slowest traced requests before tearing the
	// connections down, while the per-connection span rings are live.
	causes := map[string]int{}
	for _, ex := range srv.TraceSnapshot(int64(time.Millisecond), 64) {
		causes[ex.Cause]++
	}
	ln.Close()
	<-served
	if runErr != nil {
		return GCSchedRow{}, runErr
	}

	var all []opRecord
	for _, rs := range records {
		all = append(all, rs...)
	}
	mode := "sync"
	if background {
		mode = "background"
	}
	row := GCSchedRow{Policy: polName, Mode: mode, Ops: int64(len(all))}
	if len(all) == 0 {
		return row, nil
	}
	lats := make([]float64, len(all))
	for i, r := range all {
		lats[i] = float64(r.end - r.start)
	}
	sort.Float64s(lats)
	row.P50 = time.Duration(stats.SortedPercentile(lats, 50))
	row.P99 = time.Duration(stats.SortedPercentile(lats, 99))
	row.P999 = time.Duration(stats.SortedPercentile(lats, 99.9))

	st1 := eng.Stats()
	du := st1.UserBlocks - st0.UserBlocks
	dg := st1.GCBlocks - st0.GCBlocks
	if du > 0 {
		row.WA = float64(du+dg) / float64(du)
	}
	row.GCCycles = st1.GCCycles - st0.GCCycles
	row.GCSlices = st1.GCSlices - st0.GCSlices
	row.EmergencyRuns = st1.GCEmergencyRuns - st0.GCEmergencyRuns
	if ctl != nil {
		cs := ctl.Stats()
		row.PacerSlices = cs.Slices
		row.TailSkips = cs.TailSkips
		row.QueueSkips = cs.QueueSkips
	}
	type kv struct {
		cause string
		n     int
	}
	var ranked []kv
	for c, n := range causes {
		ranked = append(ranked, kv{c, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].cause < ranked[j].cause
	})
	var parts []string
	for _, e := range ranked {
		parts = append(parts, fmt.Sprintf("%s×%d", e.cause, e.n))
	}
	row.TailCauses = strings.Join(parts, " ")
	return row, nil
}

// GCSchedDeltas summarizes one policy's sync-versus-background pair:
// the relative p999 change and the relative WA change, both in
// percent (negative p999 means the background tail is lower).
type GCSchedDeltas struct {
	Policy  string
	P999Pct float64
	WAPct   float64
}

// Deltas computes the per-policy headline numbers for a row set laid
// out as (sync, background) pairs.
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

func renderGCSchedRows(b *strings.Builder, rows []GCSchedRow, causes bool) {
	cols := []string{"policy", "mode", "ops", "p50", "p99", "p999", "WA",
		"gc-cycles", "gc-slices", "emergency", "pacer", "tail-skip", "queue-skip"}
	if causes {
		cols = append(cols, "tail-causes")
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
		if causes {
			cells = append(cells, row.TailCauses)
		}
		tb.AddRow(cells...)
	}
	b.WriteString(tb.String())
	for _, d := range GCSchedPairDeltas(rows) {
		fmt.Fprintf(b, "%s: p999 %+.1f%% (background vs sync), WA %+.2f%%\n",
			d.Policy, d.P999Pct, d.WAPct)
	}
}

// Render prints the sync-versus-background comparison: the
// deterministic virtual-clock table first (headline numbers), then
// the live serving-stack run.
func (r *GCSchedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tail-latency-aware GC — synchronous vs background-paced (%d tenants × %d workers × %d ops, %.0f%% writes, think %v, slice %d units)\n",
		r.Opts.Tenants, r.Opts.Workers, r.Opts.OpsPerWorker, 100*r.Opts.WriteFrac, r.Opts.ThinkTime, r.Opts.SliceUnits)
	if len(r.Model) > 0 {
		b.WriteString("\nModelled tail (deterministic virtual clock, real stores and pacer):\n")
		renderGCSchedRows(&b, r.Model, false)
	}
	if len(r.Rows) > 0 {
		b.WriteString("\nLive serving stack (wall clock — subject to host scheduling noise):\n")
		renderGCSchedRows(&b, r.Rows, true)
	}
	return b.String()
}
