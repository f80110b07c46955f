// Package placement implements the five baseline data-placement
// strategies the paper evaluates ADAPT against (§4.1): SepGC, DAC,
// WARCIP, MiDA, and SepBIT. Each is an lss.Policy; ADAPT itself lives
// in internal/adaptcore. Build is the one constructor for all six by
// name.
//
// All policies index per-block state by LBA in dense arrays sized from
// Params.UserBlocks, and measure time on the user write clock (blocks
// written), the standard virtual time for lifespan estimation.
package placement

import (
	"fmt"
	"strings"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
)

// Params carries store geometry that policies need for sizing state
// and choosing thresholds.
type Params struct {
	// UserBlocks is the user-visible LBA space in blocks.
	UserBlocks int64
	// SegmentBlocks is the segment size in blocks.
	SegmentBlocks int
	// ChunkBlocks is the array chunk size in blocks.
	ChunkBlocks int
}

func (p Params) validate() Params {
	if p.UserBlocks <= 0 {
		panic("placement: UserBlocks must be positive")
	}
	if p.SegmentBlocks <= 0 {
		p.SegmentBlocks = 512
	}
	if p.ChunkBlocks <= 0 {
		p.ChunkBlocks = 16
	}
	return p
}

// Names of the six policies, as accepted by Build.
const (
	NameSepGC  = "sepgc"
	NameDAC    = "dac"
	NameWARCIP = "warcip"
	NameMiDA   = "mida"
	NameSepBIT = "sepbit"
	NameADAPT  = "adapt"
)

// Names lists every policy in the paper's evaluation order: the five
// baselines, then ADAPT. It is the one name table; the public API,
// the harness and adaptserve all read it.
func Names() []string {
	return []string{NameSepGC, NameDAC, NameWARCIP, NameMiDA, NameSepBIT, NameADAPT}
}

// Build constructs the named policy, with the paper's default group
// configuration, for a store built from cfg. It is the one policy
// builder: cfg's geometry is defaulted exactly as the store defaults
// it, and opts tunes ADAPT (the baselines ignore it).
func Build(name string, cfg lss.Config, opts adaptcore.Options) (lss.Policy, error) {
	cfg = cfg.GeometryDefaults()
	p := Params{UserBlocks: cfg.UserBlocks, SegmentBlocks: cfg.SegmentBlocks(), ChunkBlocks: cfg.ChunkBlocks}
	switch name {
	case NameSepGC:
		return NewSepGC(p), nil
	case NameDAC:
		return NewDAC(p, 5), nil
	case NameWARCIP:
		return NewWARCIP(p, 5), nil
	case NameMiDA:
		return NewMiDA(p, 8), nil
	case NameSepBIT:
		return NewSepBIT(p), nil
	case NameADAPT:
		return adaptcore.New(adaptcore.Config{
			UserBlocks:    p.UserBlocks,
			SegmentBlocks: p.SegmentBlocks,
			ChunkBlocks:   p.ChunkBlocks,
			OverProvision: cfg.OverProvision,
		}, opts), nil
	default:
		return nil, fmt.Errorf("placement: unknown policy %q (want %s)", name, strings.Join(Names(), "|"))
	}
}
