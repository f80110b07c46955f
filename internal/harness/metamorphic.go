package harness

import (
	"fmt"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/trace"
	"adapt/internal/workload"
)

// Metamorphic and differential harness. Three families of relations:
//
//   - Oracle differential: every placement policy replayed against the
//     internal/checker reference model with the byte mirror attached —
//     live sets, garbage counts, parity, and read-back all cross-checked,
//     optionally through a mid-trace device failure and rebuild.
//   - Metamorphic trace variants: perturbed traces (adjacent commuting
//     writes exchanged, seeds shifted) whose outputs must preserve
//     invariants — identical final live sets for reorderings, GC write
//     amplification within tolerance for seed shifts.
//   - Victim-sequence differential: the incremental victim index versus
//     the legacy scan-and-sort selector, byte-identical reclaim
//     sequences for deterministic victim policies under all six
//     placement policies, including a degraded-mode stretch.

// DiffOptions sizes an oracle-backed differential run.
type DiffOptions struct {
	// Blocks is the LBA space; Writes the number of zipfian updates
	// appended after a dense fill. Defaults: 16 Ki blocks, 128 Ki writes.
	Blocks, Writes int64
	// Theta is the zipfian skew (default 0.99).
	Theta float64
	// Seed drives trace synthesis.
	Seed uint64
	// Victim selects the GC victim policy.
	Victim lss.VictimPolicy
	// CheckEvery/FullEvery are the oracle cadences (checker.Options).
	CheckEvery, FullEvery int
	// FailAtOp, when positive, fails array column FailColumn after that
	// record and rebuilds incrementally while the replay continues.
	FailAtOp   int
	FailColumn int
	// RebuildChunks bounds each incremental rebuild step (default 8,
	// every 64 records while degraded).
	RebuildChunks int
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Blocks == 0 {
		o.Blocks = 16 << 10
	}
	if o.Writes == 0 {
		o.Writes = 128 << 10
	}
	if o.Theta == 0 {
		o.Theta = 0.99
	}
	if o.RebuildChunks == 0 {
		o.RebuildChunks = 8
	}
	return o
}

// DiffConfig is StoreConfig shrunk for the oracle's byte mirror: 32-byte
// blocks keep the mirrored array at a few megabytes over a whole run
// while leaving the block-count geometry (and so placement and GC
// behavior) untouched.
func DiffConfig(userBlocks int64, victim lss.VictimPolicy) lss.Config {
	cfg := StoreConfig(userBlocks, victim)
	cfg.BlockSize = 32
	cfg.ChunkBlocks = 4
	cfg.SegmentChunks = 8
	return cfg
}

// DiffTrace synthesizes the zipfian update stream the differential runs
// share, at DiffConfig's block size.
func DiffTrace(opt DiffOptions) *trace.Trace {
	opt = opt.withDefaults()
	return workload.Generate(workload.YCSBConfig{
		Blocks:    opt.Blocks,
		Writes:    opt.Writes,
		Fill:      true,
		Theta:     opt.Theta,
		BlockSize: 32,
		Seed:      opt.Seed,
	})
}

// span is the block range record r addresses at block size bs: its
// first LBA and its block count, at least one (as trace.Replay reads it).
func span(r *trace.Record, bs int64) (lba int64, blocks int) {
	blocks = int((r.Size + bs - 1) / bs)
	if blocks < 1 {
		blocks = 1
	}
	return r.Offset / bs, blocks
}

// DiffResult summarizes one oracle-backed differential replay.
type DiffResult struct {
	Policy                  string
	Ops                     int
	CheapChecks, FullChecks int64
	GCWA                    float64
	DegradedReads           int64
	RebuiltChunks           int64
}

// DiffPolicy replays tr through the named placement policy with the
// full reference-model oracle (byte mirror included) attached. Any
// divergence — live sets, garbage counts, parity, read-back — comes
// back as an error wrapping checker.ErrMismatch.
func DiffPolicy(policy string, tr *trace.Trace, opt DiffOptions) (DiffResult, error) {
	opt = opt.withDefaults()
	cfg := DiffConfig(opt.Blocks, opt.Victim)
	pol, err := BuildPolicy(policy, cfg)
	if err != nil {
		return DiffResult{}, fmt.Errorf("differential %s: %w", policy, err)
	}
	o, err := checker.New(lss.New(cfg, pol), checker.Options{
		Mirror:     true,
		CheckEvery: opt.CheckEvery,
		FullEvery:  opt.FullEvery,
	})
	if err != nil {
		return DiffResult{}, fmt.Errorf("differential %s: %w", policy, err)
	}
	bs := int64(cfg.BlockSize)
	degraded := false
	for i := range tr.Records {
		r := &tr.Records[i]
		lba, blocks := span(r, bs)
		if r.Op == trace.OpRead {
			o.Read(lba, blocks, r.Time)
		} else if err := o.Write(lba, blocks, r.Time); err != nil {
			return DiffResult{}, fmt.Errorf("differential %s record %d: %w", policy, i, err)
		}
		if opt.FailAtOp > 0 && i == opt.FailAtOp {
			if err := o.FailColumn(opt.FailColumn); err != nil {
				return DiffResult{}, fmt.Errorf("differential %s: fail column: %w", policy, err)
			}
			degraded = true
		}
		if degraded && i%64 == 0 {
			_, done, err := o.RebuildStep(opt.RebuildChunks)
			if err != nil {
				return DiffResult{}, fmt.Errorf("differential %s: rebuild: %w", policy, err)
			}
			degraded = !done
		}
	}
	for degraded {
		_, done, err := o.RebuildStep(1 << 12)
		if err != nil {
			return DiffResult{}, fmt.Errorf("differential %s: rebuild: %w", policy, err)
		}
		degraded = !done
	}
	if err := o.Drain(o.Store().Now() + sim.Second); err != nil {
		return DiffResult{}, fmt.Errorf("differential %s: final audit: %w", policy, err)
	}
	res := DiffResult{Policy: policy, Ops: len(tr.Records), GCWA: o.Store().Metrics().WA()}
	res.CheapChecks, res.FullChecks = o.Checks()
	if arr := o.MirrorArray(); arr != nil {
		res.DegradedReads = arr.DegradedReads()
		res.RebuiltChunks = arr.RebuiltChunks()
	}
	return res, nil
}

// DiffPolicies runs DiffPolicy for every placement policy on one shared
// trace, returning per-policy summaries; the first divergence aborts.
func DiffPolicies(opt DiffOptions) ([]DiffResult, error) {
	tr := DiffTrace(opt)
	var out []DiffResult
	for _, policy := range PolicyNames() {
		res, err := DiffPolicy(policy, tr, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// LiveSet returns the store's mapped LBAs in ascending order.
func LiveSet(s *lss.Store) []int64 {
	var out []int64
	for lba := int64(0); lba < s.Config().UserBlocks; lba++ {
		if _, _, ok := s.Location(lba); ok {
			out = append(out, lba)
		}
	}
	return out
}

// ReorderDisjointWrites returns a copy of tr with up to swaps random
// adjacent pairs of commuting records exchanged: both writes, touching
// disjoint block ranges at the given block size. Arrival timestamps
// stay in place — only the payloads commute — so the variant is a valid
// trace whose final per-LBA state is identical to the original's.
// Metamorphic relation: any policy replaying the variant must end with
// the same live set and accept the same number of user blocks.
func ReorderDisjointWrites(tr *trace.Trace, blockSize int64, seed uint64, swaps int) *trace.Trace {
	out := &trace.Trace{
		Name:    tr.Name + "+reorder",
		Records: append([]trace.Record(nil), tr.Records...),
	}
	n := len(out.Records)
	if n < 2 {
		return out
	}
	rng := sim.NewRNG(seed)
	for k := 0; k < swaps; k++ {
		i := int(rng.Uint64() % uint64(n-1))
		a, b := &out.Records[i], &out.Records[i+1]
		if a.Op != trace.OpWrite || b.Op != trace.OpWrite {
			continue
		}
		alo, an := span(a, blockSize)
		blo, bn := span(b, blockSize)
		if alo < blo+int64(bn) && blo < alo+int64(an) {
			continue // overlapping ranges do not commute
		}
		a.Offset, b.Offset = b.Offset, a.Offset
		a.Size, b.Size = b.Size, a.Size
	}
	return out
}

// VictimSequence replays tr through the named placement policy and
// returns every reclaimed victim segment id in reclaim order. The store
// runs in degraded mode (GC throttled to the low watermark) for records
// in [degradeFrom, degradeTo) when degradeTo > degradeFrom, so the
// differential also covers the fault path's victim selection. The
// scan-vs-index differential in internal/lss replays the same trace
// twice, once through that package's reference-scan test hook, and
// compares the sequences.
func VictimSequence(policy string, cfg lss.Config, tr *trace.Trace, degradeFrom, degradeTo int) ([]int, error) {
	pol, err := BuildPolicy(policy, cfg)
	if err != nil {
		return nil, fmt.Errorf("victim sequence %s: %w", policy, err)
	}
	var seq []int
	s := lss.New(cfg, pol, lss.Deps{
		ReclaimObserver: func(id int) { seq = append(seq, id) },
	})
	bs := int64(cfg.BlockSize)
	for i := range tr.Records {
		if degradeTo > degradeFrom {
			if i == degradeFrom {
				s.Reconfigure(func(r *lss.Runtime) { r.Degraded = true })
			}
			if i == degradeTo {
				s.Reconfigure(func(r *lss.Runtime) { r.Degraded = false })
			}
		}
		r := &tr.Records[i]
		lba, blocks := span(r, bs)
		if r.Op == trace.OpRead {
			s.Read(lba, blocks, r.Time)
			continue
		}
		for j := 0; j < blocks; j++ {
			if err := s.WriteBlock(lba+int64(j), r.Time); err != nil {
				return nil, fmt.Errorf("victim sequence %s record %d: %w", policy, i, err)
			}
		}
	}
	s.Drain(s.Now() + sim.Second)
	return seq, nil
}
