package adapt

import (
	"fmt"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// Placement policy names accepted by SimulatorConfig.Policy.
const (
	PolicySepGC  = placement.NameSepGC
	PolicyDAC    = placement.NameDAC
	PolicyWARCIP = placement.NameWARCIP
	PolicyMiDA   = placement.NameMiDA
	PolicySepBIT = placement.NameSepBIT
	PolicyADAPT  = placement.NameADAPT
)

// Policies lists every available placement policy in the paper's
// evaluation order.
func Policies() []string { return placement.Names() }

// Victim policy names accepted by SimulatorConfig.Victim.
const (
	VictimGreedy         = "greedy"
	VictimCostBenefit    = "cost-benefit"
	VictimDChoices       = "d-choices"
	VictimWindowedGreedy = "windowed-greedy"
	VictimRandomGreedy   = "random-greedy"
)

// Victims lists every available GC victim selection policy.
func Victims() []string {
	return []string{VictimGreedy, VictimCostBenefit, VictimDChoices, VictimWindowedGreedy, VictimRandomGreedy}
}

// ErrMismatch is the sentinel behind every Paranoid-mode divergence:
// when the store disagrees with the reference model, Write, Trim,
// Replay, and Verify return errors wrapping it.
var ErrMismatch = checker.ErrMismatch

// ADAPTOptions tunes the ADAPT policy; zero values take defaults.
// The Disable switches support ablation studies.
type ADAPTOptions struct {
	// SampleRate is the spatial sampling rate of the threshold
	// adaptation module (paper prototype: 0.001). Default derived from
	// capacity: the rate that samples 2048 of the UserBlocks blocks,
	// clamped to [0.002, 0.5].
	SampleRate float64
	// GhostSets is the number of concurrent ghost-set simulations.
	GhostSets int
	// DemoteScore is the re-access score required for proactive
	// demotion.
	DemoteScore int
	// DisableAggregation, DisableDemotion, and DisableAdaptation turn
	// off the corresponding mechanism.
	DisableAggregation, DisableDemotion, DisableAdaptation bool
}

// SimulatorConfig describes a simulated log-structured store on an
// SSD array. Zero fields take the paper's defaults (§4.1): 4 KiB
// blocks, 64 KiB chunks, 100 µs coalescing window, 4-SSD RAID-5, 15%
// over-provisioning.
type SimulatorConfig struct {
	// UserBlocks is the user-visible capacity in blocks. Required.
	UserBlocks int64
	// Policy is the data placement policy name (see Policies). It is
	// validated through ParsePolicy; an unknown name surfaces as an
	// error wrapping ErrUnknownPolicy when the simulator is built.
	Policy string
	// Victim is the GC victim selection policy (default greedy),
	// validated through ParseVictim (ErrUnknownVictim on bad names).
	Victim string
	// BlockSize in bytes (default 4096).
	BlockSize int
	// ChunkBlocks is the array chunk size in blocks (default 16).
	ChunkBlocks int
	// SegmentChunks is the segment size in chunks. Default derived from
	// capacity, so a volume has about 256 segments: 16 chunks (1 MiB
	// segments) at 64 Ki blocks, 32 (2 MiB) from 128 Ki blocks up, and
	// never fewer than 2.
	SegmentChunks int
	// DataColumns is the RAID data-column count (default 3).
	DataColumns int
	// OverProvision is the spare capacity fraction (default 0.15).
	OverProvision float64
	// SLAWindow is the chunk coalescing deadline (default 100 µs).
	SLAWindow time.Duration
	// Paranoid arms the correctness oracle: the store runs its full
	// invariant sweep after every GC cycle and drain, and the simulator
	// replays every operation through a model-based reference (flat
	// per-LBA store plus a byte-level RAID mirror), failing fast with an
	// error wrapping ErrMismatch on any divergence. Costs roughly 40×
	// in throughput (BenchmarkParanoidReplay) plus a full array mirror
	// in memory; meant for tests and `make paranoid`, not experiments.
	Paranoid bool
	// ADAPT tunes the ADAPT policy (ignored for baselines).
	ADAPT ADAPTOptions
	// GCSched selects the garbage-collection scheduling mode; the zero
	// value keeps the classic synchronous watermark GC.
	GCSched GCSchedConfig
}

// GCSchedConfig is the typed GC-scheduling configuration shared by the
// simulator and the prototype. With Background set, watermark pressure
// no longer triggers a stop-the-world GC cycle inline with a write:
// the cycle becomes a resumable state machine driven in bounded slices
// — per-operation in the deterministic simulator, by the gcsched pacer
// in the served prototype — with a synchronous emergency fallback when
// the free pool hits the hard floor. Invalid values surface as errors
// from the constructor, never panics.
type GCSchedConfig struct {
	// Background enables paced background GC. The store derives its
	// watermarks and emergency floor from the policy's group count.
	Background bool
	// SliceUnits is the relocation budget per GC slice (default 32):
	// per operation in the simulator, and for RunPrototype the pacer's
	// budget per tick at urgency 1. One unit is roughly one victim chunk
	// scanned or one block relocated.
	SliceUnits int
}

// sliceUnits returns the defaulted per-slice budget.
func (g GCSchedConfig) sliceUnits() int {
	if g.SliceUnits == 0 {
		return 32
	}
	return g.SliceUnits
}

// build validates the configuration and constructs the store geometry
// and the placement policy instance in one pass. It is the single
// path behind NewSimulator, RunPrototype, and PolicyFootprintBytes, so
// every entry point shares the same validation and defaulting: bad
// names surface as ErrUnknownPolicy/ErrUnknownVictim and bad geometry
// as errors here rather than panics deep inside the store.
func (c SimulatorConfig) build() (lss.Config, lss.Policy, error) {
	fail := func(err error) (lss.Config, lss.Policy, error) { return lss.Config{}, nil, err }
	if c.UserBlocks <= 0 {
		return fail(fmt.Errorf("adapt: UserBlocks must be positive, got %d", c.UserBlocks))
	}
	if c.BlockSize < 0 || c.ChunkBlocks < 0 || c.SegmentChunks < 0 {
		return fail(fmt.Errorf("adapt: negative geometry (BlockSize %d, ChunkBlocks %d, SegmentChunks %d)",
			c.BlockSize, c.ChunkBlocks, c.SegmentChunks))
	}
	if c.DataColumns < 0 {
		return fail(fmt.Errorf("adapt: negative DataColumns %d", c.DataColumns))
	}
	if c.OverProvision < 0 {
		return fail(fmt.Errorf("adapt: negative OverProvision %v", c.OverProvision))
	}
	if c.OverProvision > 0 && c.OverProvision < 0.02 {
		return fail(fmt.Errorf("adapt: OverProvision %v below the 2%% GC floor", c.OverProvision))
	}
	if c.SLAWindow < 0 {
		return fail(fmt.Errorf("adapt: negative SLAWindow %v", c.SLAWindow))
	}
	polName, err := ParsePolicy(c.Policy)
	if err != nil {
		return fail(err)
	}
	victim, err := ParseVictim(c.Victim)
	if err != nil {
		return fail(err)
	}
	vp, err := victim.lss()
	if err != nil {
		return fail(err)
	}
	cfg := lss.Config{
		BlockSize:     c.BlockSize,
		ChunkBlocks:   c.ChunkBlocks,
		SegmentChunks: c.SegmentChunks,
		DataColumns:   c.DataColumns,
		UserBlocks:    c.UserBlocks,
		OverProvision: c.OverProvision,
		SLAWindow:     sim.Time(c.SLAWindow),
		Victim:        vp,
		Paranoid:      c.Paranoid,
	}
	pol, err := placement.Build(string(polName), cfg, adaptcore.Options{
		SampleRate:         c.ADAPT.SampleRate,
		Ladder:             c.ADAPT.GhostSets,
		DemoteScore:        c.ADAPT.DemoteScore,
		DisableAggregation: c.ADAPT.DisableAggregation,
		DisableDemotion:    c.ADAPT.DisableDemotion,
		DisableAdaptation:  c.ADAPT.DisableAdaptation,
	})
	if err != nil {
		return fail(err)
	}
	if c.GCSched.SliceUnits < 0 {
		return fail(fmt.Errorf("adapt: negative GCSched.SliceUnits %d", c.GCSched.SliceUnits))
	}
	if c.GCSched.Background {
		cfg.BackgroundGC = true
	} else if c.GCSched.SliceUnits != 0 {
		return fail(fmt.Errorf("adapt: GCSched.SliceUnits set without GCSched.Background"))
	}
	return cfg, pol, nil
}

// GroupMetrics is the per-group traffic breakdown.
type GroupMetrics struct {
	Group          int
	UserBlocks     int64
	GCBlocks       int64
	ShadowBlocks   int64
	PaddingBlocks  int64
	PaddingEvents  int64
	SealedSegments int64
}

// Metrics summarizes a simulation run.
type Metrics struct {
	// WA is (user + GC-rewritten blocks) / user blocks (Figure 8).
	WA float64
	// EffectiveWA additionally charges padding and shadow traffic.
	EffectiveWA float64
	// PaddingRatio is padding blocks over all array block traffic
	// (Figure 9).
	PaddingRatio float64

	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64
	ReadBlocks, SegmentsReclaimed, GCCycles           int64

	// DataChunks and ParityChunks are array-level chunk writes.
	DataChunks, ParityChunks int64

	// Latency summarizes user-block persistence latency: time from
	// arrival to durability (chunk flush or shadow persist). The SLA
	// window bounds it by construction.
	Latency LatencyMetrics

	PerGroup []GroupMetrics
}

// LatencyMetrics summarizes persistence latency.
type LatencyMetrics struct {
	Count      int64
	Mean       time.Duration
	P50        time.Duration // bucket-resolution upper bound
	P99        time.Duration // bucket-resolution upper bound
	Max        time.Duration
	Violations int64 // beyond the SLA window (Drain leftovers only)
}

// Simulator is a trace-driven log-structured store with a placement
// policy. It is not safe for concurrent use.
type Simulator struct {
	store     *lss.Store
	policy    lss.Policy
	oracle    *checker.Oracle // non-nil iff Paranoid
	verifyErr error           // first deferred audit failure (Drain)
	gcStep    int             // per-op GC slice budget; 0 = synchronous GC
}

// NewSimulator builds a simulator for the given configuration.
func NewSimulator(c SimulatorConfig) (*Simulator, error) {
	cfg, pol, err := c.build()
	if err != nil {
		return nil, err
	}
	s := &Simulator{store: lss.New(cfg, pol), policy: pol}
	if c.GCSched.Background {
		s.gcStep = c.GCSched.sliceUnits()
	}
	if c.Paranoid {
		s.oracle, err = checker.New(s.store, checker.Options{Mirror: true})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// PolicyName returns the active placement policy's name.
func (s *Simulator) PolicyName() string { return s.policy.Name() }

// TelemetryConfig tunes the telemetry subsystem attached by
// EnableTelemetry. Zero values take the telemetry package defaults.
type TelemetryConfig struct {
	// WindowInterval is the time-series snapshot interval in simulated
	// (trace) time. Default 10 ms.
	WindowInterval time.Duration
	// MaxWindows bounds the retained window ring (default 4096).
	MaxWindows int
	// EventCapacity bounds the event tracer ring (default 4096).
	EventCapacity int
}

// EnableTelemetry attaches a telemetry set to the simulator: the
// store's canonical metrics register with the time-series recorder,
// GC/flush/padding events flow into the tracer, and — when the active
// policy is ADAPT — threshold adaptations and proactive demotions are
// instrumented too. Call it once, before replaying any traffic.
// The returned Set exposes the registry, recorder, and tracer for
// export (telemetry.WriteWindowsJSONL, Set.Tracer.WriteJSONL, ...).
// The store's gauges read it when they are read, so scrape the
// registry between replays, not during one.
func (s *Simulator) EnableTelemetry(tc TelemetryConfig) *telemetry.Set {
	ts := telemetry.New(telemetry.Options{
		WindowInterval: sim.Time(tc.WindowInterval),
		MaxWindows:     tc.MaxWindows,
		EventCapacity:  tc.EventCapacity,
	})
	s.store.Reconfigure(func(r *lss.Runtime) { r.Telemetry = ts })
	if p, ok := s.policy.(*adaptcore.Policy); ok {
		p.SetTelemetry(ts)
	}
	return ts
}

// stepGC drives one bounded background-GC slice when the simulator
// runs in GCSched.Background mode. The simulator has no wall clock, so
// "background" means per-operation pacing: every user op donates one
// slice of budget, which spreads a cycle's relocations across the
// operations that made it necessary instead of charging one victim
// write with the whole cycle.
func (s *Simulator) stepGC() {
	if s.gcStep > 0 {
		s.store.GCStep(s.gcStep)
	}
}

// Write appends user-written blocks starting at lba at the given
// trace time. Under Paranoid, a reference-model divergence surfaces
// here as an error wrapping ErrMismatch.
func (s *Simulator) Write(lba int64, blocks int, at time.Duration) error {
	var err error
	if s.oracle != nil {
		err = s.oracle.Write(lba, blocks, sim.Time(at))
	} else {
		err = s.store.Write(lba, blocks, sim.Time(at))
	}
	if err == nil {
		s.stepGC()
	}
	return err
}

// Read records a user read (workload accounting only).
func (s *Simulator) Read(lba int64, blocks int, at time.Duration) {
	if s.oracle != nil {
		s.oracle.Read(lba, blocks, sim.Time(at))
	} else {
		s.store.Read(lba, blocks, sim.Time(at))
	}
	s.stepGC()
}

// Trim discards blocks (TRIM/UNMAP): their live versions become
// garbage immediately, reclaimable without GC migration.
func (s *Simulator) Trim(lba int64, blocks int, at time.Duration) error {
	var err error
	if s.oracle != nil {
		err = s.oracle.Trim(lba, blocks, sim.Time(at))
	} else {
		err = s.store.Trim(lba, blocks, sim.Time(at))
	}
	if err == nil {
		s.stepGC()
	}
	return err
}

// Drain flushes all buffered chunks, padding remainders; call it when
// a replay finishes (Replay does this automatically). Under Paranoid
// the post-drain audit failure, if any, is held for Verify.
func (s *Simulator) Drain() {
	// Finish any in-flight background cycle first so the drain (and the
	// Paranoid sweep behind it) sees settled GC accounting.
	for s.gcStep > 0 && s.store.GCActive() {
		s.store.GCStep(1 << 30)
	}
	if s.oracle != nil {
		if err := s.oracle.Drain(s.store.Now() + sim.Second); err != nil && s.verifyErr == nil {
			s.verifyErr = err
		}
		return
	}
	s.store.Drain(s.store.Now() + sim.Second)
}

// Verify runs the deepest correctness audit available right now and
// reports the first failure, if any. Without Paranoid it sweeps the
// store's internal invariants; with it, the model-based oracle
// additionally proves the LBA mapping, per-segment garbage accounting,
// RAID parity, and every live block's read-back against the reference.
func (s *Simulator) Verify() error {
	if s.verifyErr != nil {
		return s.verifyErr
	}
	if s.oracle != nil {
		return s.oracle.FullCheck()
	}
	return s.store.CheckInvariants()
}

// Metrics returns a snapshot of the run's traffic accounting.
func (s *Simulator) Metrics() Metrics {
	m := s.store.Metrics()
	a := s.store.Array()
	out := Metrics{
		WA:                m.WA(),
		EffectiveWA:       m.EffectiveWA(),
		PaddingRatio:      m.PaddingRatio(),
		UserBlocks:        m.UserBlocks,
		GCBlocks:          m.GCBlocks,
		ShadowBlocks:      m.ShadowBlocks,
		PaddingBlocks:     m.PaddingBlocks,
		ReadBlocks:        m.ReadBlocks,
		SegmentsReclaimed: m.SegmentsReclaimed,
		GCCycles:          m.GCCycles,
		DataChunks:        a.DataChunks(),
		ParityChunks:      a.ParityChunks(),
		Latency: LatencyMetrics{
			Count:      m.Latency.Count,
			Mean:       time.Duration(m.Latency.Mean()),
			P50:        time.Duration(m.Latency.Quantile(0.5)),
			P99:        time.Duration(m.Latency.Quantile(0.99)),
			Max:        time.Duration(m.Latency.Max),
			Violations: m.Latency.Violations,
		},
	}
	for i, g := range m.PerGroup {
		out.PerGroup = append(out.PerGroup, GroupMetrics{
			Group:          i,
			UserBlocks:     g.UserBlocks,
			GCBlocks:       g.GCBlocks,
			ShadowBlocks:   g.ShadowBlocks,
			PaddingBlocks:  g.PaddingBlocks,
			PaddingEvents:  g.PaddingEvents,
			SealedSegments: g.Sealed,
		})
	}
	return out
}

// ADAPTDiagnostics reports ADAPT's internal mechanism counters, or
// ok=false when the active policy is not ADAPT.
type ADAPTDiagnostics struct {
	Threshold      float64
	Adoptions      int64
	Demotions      int64
	ShadowGrants   int64
	FootprintBytes int64 // sampler + ghost sets + discriminators
	BaseTableBytes int64 // per-LBA last-write table
}

// Diagnostics returns ADAPT-specific counters.
func (s *Simulator) Diagnostics() (ADAPTDiagnostics, bool) {
	p, ok := s.policy.(*adaptcore.Policy)
	if !ok {
		return ADAPTDiagnostics{}, false
	}
	return ADAPTDiagnostics{
		Threshold:      p.Threshold(),
		Adoptions:      p.Adoptions(),
		Demotions:      p.Demotions(),
		ShadowGrants:   p.ShadowGrants(),
		FootprintBytes: p.Footprint(),
		BaseTableBytes: p.BaseFootprint(),
	}, true
}
