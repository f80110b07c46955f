package harness

import (
	"fmt"
	"strings"
	"time"

	"adapt/internal/prototype"
	"adapt/internal/stats"
)

// FaultOptions sizes the degraded-mode prototype experiment: one run
// per policy with a device failure partway through, so each run passes
// through the healthy, degraded, rebuilding, and rebuilt phases.
type FaultOptions struct {
	// Blocks is the store footprint; Ops the user writes per run.
	Blocks int64
	Ops    int64
	// Clients is the closed-loop client count.
	Clients int
	// ReadRatio interleaves reads, which is what makes degraded reads
	// (reconstruction fan-out) visible.
	ReadRatio float64
	// ServiceTime is the modelled per-chunk device time.
	ServiceTime time.Duration
	// FailDevice is the column killed in every run; FailAtFrac places
	// the failure at this fraction of Ops and RebuildDelayFrac delays
	// the rebuild by that further fraction.
	FailDevice       int
	FailAtFrac       float64
	RebuildDelayFrac float64
	// QueueTimeout bounds one queue-send attempt before retry/backoff.
	QueueTimeout time.Duration
}

// DefaultFaultOptions sizes the experiment for the given scale: the
// failure fires a third of the way in and the rebuild starts after a
// further 15% of the run, leaving room for every phase to accumulate
// ops.
func DefaultFaultOptions(sc Scale) FaultOptions {
	return FaultOptions{
		Blocks:           sc.YCSBBlocks / 4,
		Ops:              2 * sc.YCSBBlocks,
		Clients:          4,
		ReadRatio:        0.2,
		ServiceTime:      5 * time.Microsecond,
		FailDevice:       1,
		FailAtFrac:       0.33,
		RebuildDelayFrac: 0.15,
		QueueTimeout:     500 * time.Microsecond,
	}
}

// FaultRow is one policy × phase cell of the degraded-mode table.
type FaultRow struct {
	Policy string
	prototype.PhaseStats
}

// FaultCounters aggregates one policy's fault-path accounting.
type FaultCounters struct {
	Policy        string
	DegradedReads int64
	RebuildChunks int64
	LostChunks    int64
	QueueRetries  int64
}

// FaultResult holds the degraded-mode experiment output.
type FaultResult struct {
	Rows     []FaultRow
	Counters []FaultCounters
}

// ExpFault runs the fault-injection experiment: every policy suffers
// the same device failure at the same op, and the per-phase
// throughput, write amplification, and P99 latency are tabulated
// against the healthy phase of the same run. opts is used as given:
// start from DefaultFaultOptions.
func ExpFault(sc Scale, policies []string, opts FaultOptions) (*FaultResult, error) {
	failOp := int64(opts.FailAtFrac * float64(opts.Ops))
	if failOp < 1 {
		failOp = 1
	}
	out := &FaultResult{}
	for _, polName := range policies {
		res, err := runPrototype(polName, opts.Blocks, opts.ServiceTime, false, prototype.Config{
			Clients:   opts.Clients,
			Ops:       opts.Ops,
			Theta:     0.99,
			ReadRatio: opts.ReadRatio,
			Seed:      sc.Seed,
			Fault: prototype.FaultConfig{
				FailDevice:      opts.FailDevice,
				FailAtOp:        failOp,
				RebuildDelayOps: int64(opts.RebuildDelayFrac * float64(opts.Ops)),
				QueueTimeout:    opts.QueueTimeout,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("fault %s: %w", polName, err)
		}
		for _, ps := range res.Phases {
			out.Rows = append(out.Rows, FaultRow{polName, ps})
		}
		out.Counters = append(out.Counters, FaultCounters{
			Policy:        polName,
			DegradedReads: res.DegradedReads,
			RebuildChunks: res.RebuildChunks,
			LostChunks:    res.LostChunks,
			QueueRetries:  res.QueueRetries,
		})
	}
	return out, nil
}

// Render prints the per-phase table and the fault counters.
func (r *FaultResult) Render() string {
	var b strings.Builder
	b.WriteString("Fault injection — per-phase prototype performance (YCSB-A)\n")
	tb := stats.NewTable("policy", "phase", "ops", "ops/s", "WA", "p99")
	for _, row := range r.Rows {
		tb.AddRow(row.Policy, row.Phase.String(), row.Ops, row.OpsPerSec, row.WA,
			row.P99.Round(time.Microsecond))
	}
	b.WriteString(tb.String())
	b.WriteString("Fault counters per policy\n")
	tb = stats.NewTable("policy", "degraded-reads", "rebuild-chunks", "lost-chunks", "queue-retries")
	for _, c := range r.Counters {
		tb.AddRow(c.Policy, c.DegradedReads, c.RebuildChunks, c.LostChunks, c.QueueRetries)
	}
	b.WriteString(tb.String())
	return b.String()
}
