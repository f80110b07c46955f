package adaptcore

import (
	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// Group layout (§3.1): six groups — two user-written, four
// GC-rewritten.
const (
	GroupHot     lss.GroupID = 0 // short-lived user writes
	GroupCold    lss.GroupID = 1 // long-lived user writes
	FirstGCGroup lss.GroupID = 2
	NumGCGroups              = 4
	NumGroups                = 6
)

// Config carries the store geometry ADAPT needs for sizing.
type Config struct {
	// UserBlocks is the user-visible LBA space in blocks.
	UserBlocks int64
	// SegmentBlocks is the segment size in blocks.
	SegmentBlocks int
	// ChunkBlocks is the array chunk size in blocks.
	ChunkBlocks int
	// OverProvision mirrors the store's spare-capacity fraction.
	OverProvision float64
}

// Options tunes the three ADAPT mechanisms. Zero values take
// defaults; the Disable* switches exist for the ablation benchmarks.
type Options struct {
	// SampleRate is the spatial sampling rate for threshold
	// adaptation (paper prototype: 0.001). Zero derives it from the
	// volume: 2048/UserBlocks clamped to [0.002, 0.5], a few thousand
	// sampled blocks at any size.
	SampleRate float64
	// Ladder is the number of concurrent ghost sets.
	Ladder int
	// GhostCapacityShare is the fraction of physical capacity assumed
	// to belong to the user-written groups in the ghost simulation.
	GhostCapacityShare float64
	// DemoteDepth and DemotePerFilter size each cascading
	// discriminator (filters in the FIFO ring, insertions per filter).
	DemoteDepth, DemotePerFilter int
	// DemoteScore is the RA score required to demote proactively.
	DemoteScore int
	// DisableAggregation turns off cross-group dynamic aggregation.
	DisableAggregation bool
	// DisableDemotion turns off proactive demotion placement.
	DisableDemotion bool
	// DisableAdaptation freezes the hot/cold threshold at the
	// cold-start heuristic.
	DisableAdaptation bool
}

func (o Options) withDefaults() Options {
	if o.Ladder == 0 {
		o.Ladder = 7
	}
	if o.GhostCapacityShare == 0 {
		o.GhostCapacityShare = 0.15
	}
	if o.DemoteDepth == 0 {
		o.DemoteDepth = 4
	}
	if o.DemoteScore == 0 {
		o.DemoteScore = 2
	}
	return o
}

// Policy is the ADAPT data-placement policy. It implements
// lss.Policy, lss.Advisor (cross-group aggregation), and
// lss.SegmentObserver (threshold cold start).
type Policy struct {
	opts      Options
	lastWrite []int64 // previous user-write clock per LBA, -1 unseen
	ta        *thresholdAdapter
	dm        *demoter
	agg       *aggregator

	demotedUser int64
	tracer      *telemetry.Tracer // nil-safe demotion tracing
}

// New constructs the ADAPT policy.
func New(cfg Config, opts Options) *Policy {
	if cfg.UserBlocks <= 0 {
		panic("adaptcore: UserBlocks must be positive")
	}
	if cfg.SegmentBlocks <= 0 {
		cfg.SegmentBlocks = 512
	}
	if cfg.ChunkBlocks <= 0 {
		cfg.ChunkBlocks = 16
	}
	if cfg.OverProvision <= 0 {
		cfg.OverProvision = 0.15
	}
	opts = opts.withDefaults()
	if opts.SampleRate == 0 {
		opts.SampleRate = min(max(2048/float64(cfg.UserBlocks), 0.002), 0.5)
	}
	if opts.DemotePerFilter == 0 {
		// Scale discriminator epochs with the volume so the FIFO ring
		// rotates on recent history rather than accumulating the whole
		// run in one filter.
		opts.DemotePerFilter = int(cfg.UserBlocks / 16)
		if opts.DemotePerFilter < 256 {
			opts.DemotePerFilter = 256
		}
	}
	p := &Policy{
		opts:      opts,
		lastWrite: make([]int64, cfg.UserBlocks),
		ta: newThresholdAdapter(opts.SampleRate, opts.Ladder, cfg.UserBlocks,
			cfg.SegmentBlocks, cfg.OverProvision, opts.GhostCapacityShare),
		dm:  newDemoter(FirstGCGroup, NumGCGroups, opts.DemoteDepth, opts.DemotePerFilter, opts.DemoteScore),
		agg: newAggregator(GroupHot, GroupCold, cfg.ChunkBlocks),
	}
	for i := range p.lastWrite {
		p.lastWrite[i] = -1
	}
	return p
}

// SetTelemetry attaches telemetry to the policy: the adaptive
// threshold and the mechanism counters register as function-backed
// gauges, and threshold adoptions and proactive demotions are traced.
func (p *Policy) SetTelemetry(ts *telemetry.Set) {
	if ts == nil {
		p.tracer = nil
		p.ta.tracer = nil
		return
	}
	p.tracer = ts.Tracer
	p.ta.tracer = ts.Tracer
	reg := ts.Registry
	reg.NewFuncGauge(telemetry.MetricAdaptThreshold,
		"Hot/cold lifespan boundary in write-clock blocks", false,
		func() int64 { return int64(p.ta.threshold()) })
	reg.NewFuncGauge(telemetry.MetricAdaptAdoptions,
		"Ghost-simulation threshold adoptions", true,
		func() int64 { return p.ta.adoptions })
	reg.NewFuncGauge(telemetry.MetricAdaptDemotions,
		"User writes proactively demoted into GC groups", true,
		func() int64 { return p.dm.demotions })
	reg.NewFuncGauge(telemetry.MetricAdaptShadows,
		"Chunk timeouts resolved by cross-group shadow append", true,
		func() int64 { return p.agg.shadowGrants })
}

// Name implements lss.Policy.
func (*Policy) Name() string { return "adapt" }

// Groups implements lss.Policy.
func (*Policy) Groups() int { return NumGroups }

// Threshold returns the current hot/cold boundary in write-clock
// blocks.
func (p *Policy) Threshold() float64 { return p.ta.threshold() }

// Adoptions returns how many times the ghost simulation has updated
// the live threshold.
func (p *Policy) Adoptions() int64 { return p.ta.adoptions }

// Demotions returns how many user writes were proactively demoted.
func (p *Policy) Demotions() int64 { return p.dm.demotions }

// ShadowGrants returns how many hot-chunk timeouts were resolved by
// cross-group shadow append.
func (p *Policy) ShadowGrants() int64 { return p.agg.shadowGrants }

// PlaceUser implements lss.Policy: sample for threshold adaptation,
// try proactive demotion, then separate hot/cold by inferred lifespan
// against the adaptive threshold.
func (p *Policy) PlaceUser(lba int64, now sim.Time, w sim.WriteClock) lss.GroupID {
	if !p.opts.DisableAdaptation {
		p.ta.offer(lba, now)
	}
	prev := p.lastWrite[lba]
	p.lastWrite[lba] = int64(w)
	if !p.opts.DisableDemotion {
		if g, ok := p.dm.check(lba); ok {
			p.demotedUser++
			if p.tracer != nil {
				p.tracer.Emit(telemetry.Demote(now, int(g), lba))
			}
			return g
		}
	}
	if prev < 0 {
		return GroupCold // unseen blocks classify cold
	}
	if float64(int64(w)-prev) < p.ta.threshold() {
		return GroupHot
	}
	return GroupCold
}

// PlaceGC implements lss.Policy: hot-origin blocks stay in the
// youngest GC group; others bin by age against the threshold, like
// SepBIT's residual-lifespan estimate. Blocks that migrate back into
// their origin GC group feed that group's RA discriminator (§3.4).
func (p *Policy) PlaceGC(lba int64, from lss.GroupID, _, _ sim.WriteClock, w sim.WriteClock) lss.GroupID {
	target := p.gcClass(lba, from, w)
	if !p.opts.DisableDemotion && from >= FirstGCGroup && target == from {
		p.dm.onRepeatMigration(lba, from)
	}
	return target
}

func (p *Policy) gcClass(lba int64, from lss.GroupID, w sim.WriteClock) lss.GroupID {
	if from == GroupHot {
		return FirstGCGroup
	}
	tau := p.ta.threshold()
	var age float64
	if prev := p.lastWrite[lba]; prev >= 0 {
		age = float64(int64(w) - prev)
	}
	switch {
	case age < tau:
		return FirstGCGroup + 1
	case age < 4*tau:
		return FirstGCGroup + 2
	default:
		return FirstGCGroup + 3
	}
}

// OnChunkTimeout implements lss.Advisor by delegating to the
// cross-group aggregator.
func (p *Policy) OnChunkTimeout(g lss.GroupID, now sim.Time, groups []lss.GroupSnapshot) lss.TimeoutAction {
	if p.opts.DisableAggregation {
		return lss.TimeoutAction{Kind: lss.PadOwn}
	}
	return p.agg.OnChunkTimeout(g, now, groups)
}

// OnSegmentReclaimed implements lss.SegmentObserver: hot-group segment
// lifespans seed the threshold before the first ghost adoption.
func (p *Policy) OnSegmentReclaimed(g lss.GroupID, born, _, now sim.WriteClock, _, _ int) {
	if g == GroupHot {
		p.ta.seedInitial(float64(now - born))
	}
}

// Footprint returns the memory cost of ADAPT's extra machinery
// (sampler, ghost sets, discriminators) in bytes, excluding the
// per-LBA last-write table that lifespan baselines such as SepBIT
// also keep (see BaseFootprint).
func (p *Policy) Footprint() int64 {
	return p.ta.footprint() + p.dm.footprint()
}

// BaseFootprint returns the per-LBA metadata cost shared with
// lifespan-based baselines.
func (p *Policy) BaseFootprint() int64 { return int64(len(p.lastWrite)) * 8 }
