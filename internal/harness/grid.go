package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adapt/internal/lss"
	"adapt/internal/trace"
	"adapt/internal/workload"
)

// Grid holds the full experiment grid behind Figures 8–10: every
// (suite, victim policy, placement policy, volume) run.
type Grid struct {
	Scale    Scale
	Profiles []workload.Profile
	Victims  []lss.VictimPolicy
	Policies []string
	// Runs[profile][victim][policy] is one RunResult per volume.
	Runs map[workload.Profile]map[lss.VictimPolicy]map[string][]RunResult
}

// RunGrid executes the grid, parallelizing across independent runs.
func RunGrid(sc Scale, profiles []workload.Profile, victims []lss.VictimPolicy, policies []string) (*Grid, error) {
	g := &Grid{
		Scale:    sc,
		Profiles: profiles,
		Victims:  victims,
		Policies: policies,
		Runs:     make(map[workload.Profile]map[lss.VictimPolicy]map[string][]RunResult),
	}
	type job struct {
		profile workload.Profile
		victim  lss.VictimPolicy
		policy  string
		volIdx  int
		vol     workload.Volume
	}
	var jobs []job
	for _, p := range profiles {
		g.Runs[p] = make(map[lss.VictimPolicy]map[string][]RunResult)
		for _, v := range victims {
			g.Runs[p][v] = make(map[string][]RunResult)
			for _, pol := range policies {
				g.Runs[p][v][pol] = make([]RunResult, sc.Volumes)
			}
		}
		for i, vol := range sc.Suite(p) {
			for _, v := range victims {
				for _, pol := range policies {
					jobs = append(jobs, job{p, v, pol, i, vol})
				}
			}
		}
	}
	err := parallel(len(jobs), func(i int) error {
		j := jobs[i]
		res, err := runTraceFn(j.policy, j.vol.Generate(), j.vol.FootprintBlocks, j.victim)
		if err != nil {
			return fmt.Errorf("%s/%s/%s vol %d: %w", j.profile, j.victim, j.policy, j.volIdx, err)
		}
		g.Runs[j.profile][j.victim][j.policy][j.volIdx] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// runTraceFn runs one grid cell through RunTrace; tests swap it to
// verify RunGrid's early abort.
var runTraceFn = func(policy string, tr *trace.Trace, userBlocks int64, victim lss.VictimPolicy) (RunResult, error) {
	return RunTrace(policy, tr, StoreConfig(userBlocks, victim))
}

// parallel is the harness's one worker pool: it runs job(0) … job(n-1)
// on one worker per CPU, each job writing only its own result slot.
// The first error stops the workers from starting further jobs and is
// returned once the jobs in flight finish.
func parallel(n int, job func(i int) error) error {
	var (
		next  atomic.Int64
		stop  atomic.Bool
		first error
		once  sync.Once
		wg    sync.WaitGroup
	)
	for range min(runtime.NumCPU(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					once.Do(func() { first = err })
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// OverallWA aggregates a policy's write amplification across a suite
// as total array block traffic (user + GC rewrites + shadow copies +
// zero padding) over total user traffic — the paper's "overall WA"
// bar. Padding is included because the array writes it like any other
// data; §1 calls this the "actual write amplification ratio", and
// Figure 10's padding↔WA correlation only exists under this
// definition.
func (g *Grid) OverallWA(p workload.Profile, v lss.VictimPolicy, policy string) float64 {
	return g.overall(p, v, policy, func(r RunResult) int64 { return r.GCBlocks + r.ShadowBlocks + r.PaddingBlocks })
}

// OverallGCWA aggregates the GC-only write amplification
// ((user+GC)/user), the secondary metric that isolates garbage
// collection efficiency from padding.
func (g *Grid) OverallGCWA(p workload.Profile, v lss.VictimPolicy, policy string) float64 {
	return g.overall(p, v, policy, func(r RunResult) int64 { return r.GCBlocks })
}

// overall is a suite's total traffic over its user traffic, where each
// run adds extra(run) blocks to its user blocks.
func (g *Grid) overall(p workload.Profile, v lss.VictimPolicy, policy string, extra func(RunResult) int64) float64 {
	var user, total int64
	for _, r := range g.Runs[p][v][policy] {
		user += r.UserBlocks
		total += r.UserBlocks + extra(r)
	}
	if user == 0 {
		return 1
	}
	return float64(total) / float64(user)
}

// VolumeWAs returns the per-volume padding-inclusive WA distribution
// (the boxplots of Figure 8).
func (g *Grid) VolumeWAs(p workload.Profile, v lss.VictimPolicy, policy string) []float64 {
	return g.perVolume(p, v, policy, func(r RunResult) float64 { return r.EffectiveWA })
}

// VolumePaddingRatios returns per-volume padding traffic ratios (the
// CDFs of Figure 9).
func (g *Grid) VolumePaddingRatios(p workload.Profile, v lss.VictimPolicy, policy string) []float64 {
	return g.perVolume(p, v, policy, func(r RunResult) float64 { return r.PaddingRatio })
}

func (g *Grid) perVolume(p workload.Profile, v lss.VictimPolicy, policy string, f func(RunResult) float64) []float64 {
	runs := g.Runs[p][v][policy]
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}
