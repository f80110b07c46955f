package harness

import (
	"strings"

	"adapt/internal/lss"
	"adapt/internal/workload"
)

// Experiment is one row of the experiment table adaptbench runs.
type Experiment struct {
	Name string
	// Explicit experiments run only when named, never under -exp all.
	Explicit bool
	// Run returns the experiment's tables as adaptbench prints them.
	Run func(*Session) (string, error)
}

// Session is one adaptbench invocation: the scale every experiment runs
// at, and the Fig 8–10 grid, built by the first experiment that needs
// it and shared by the others.
type Session struct {
	Scale Scale
	// TimeGrid, when set, runs the grid's one build; adaptbench wraps it
	// to print the build's wall time.
	TimeGrid func(build func() error) error
	g        *Grid
}

func (s *Session) grid() (*Grid, error) {
	if s.g != nil {
		return s.g, nil
	}
	timed := s.TimeGrid
	if timed == nil {
		timed = func(build func() error) error { return build() }
	}
	err := timed(func() (err error) {
		s.g, err = RunGrid(s.Scale, workload.Profiles(),
			[]lss.VictimPolicy{lss.Greedy, lss.CostBenefit}, PolicyNames())
		return err
	})
	if err != nil {
		return nil, err
	}
	return s.g, nil
}

// Experiments returns the table in -exp all order, the explicit-only
// entries last.
func Experiments() []Experiment {
	// The extensions compare the GC-only separation baseline, the
	// strongest lifespan-inference baseline and ADAPT.
	three := []string{"sepgc", "sepbit", PolicyADAPT}
	return []Experiment{
		{Name: "fig2", Run: func(s *Session) (string, error) {
			return each(Fig2(s.Scale, workload.Profiles()), nil)
		}},
		{Name: "fig3", Run: func(s *Session) (string, error) {
			return each(Fig3(s.Scale, PolicyNames()))
		}},
		{Name: "fig8", Run: onGrid(func(g *Grid) string {
			return RenderFig8(Fig8(g)) + "\n" + renderFig8Reductions(g)
		})},
		{Name: "fig9", Run: onGrid(func(g *Grid) string { return RenderFig9(Fig9(g)) })},
		{Name: "fig10", Run: onGrid(func(g *Grid) string { return RenderFig10(Fig10(g)) })},
		{Name: "fig11", Run: func(s *Session) (string, error) {
			return shown(Fig11(s.Scale, PolicyNames()))
		}},
		{Name: "fig12", Run: func(s *Session) (string, error) {
			return shown(Fig12(s.Scale, PolicyNames(), DefaultFig12Options(s.Scale)))
		}},
		{Name: "streams", Run: func(s *Session) (string, error) {
			rows, err := ExpStreams(s.Scale, three)
			return RenderStreams(rows) + "\n", err
		}},
		{Name: "chunk", Run: func(s *Session) (string, error) {
			cells, err := ExpChunkSize(s.Scale, three)
			return RenderExt("Extension — chunk-size sensitivity (YCSB-A, Greedy)", cells) + "\n", err
		}},
		{Name: "sla", Run: func(s *Session) (string, error) {
			cells, err := ExpSLAWindow(s.Scale, three)
			return RenderExt("Extension — SLA-window sensitivity (YCSB-A, Greedy)", cells) + "\n", err
		}},
		{Name: "victims", Run: func(s *Session) (string, error) {
			cells, err := ExpVictims(s.Scale, []string{"sepgc", PolicyADAPT})
			return RenderExt("Extension — victim-selection policies (YCSB-A)", cells) + "\n", err
		}},
		{Name: "latency", Run: func(s *Session) (string, error) {
			cells, err := ExpLatency(s.Scale, PolicyNames())
			return RenderLatency(cells) + "\n", err
		}},
		{Name: "fault", Run: func(s *Session) (string, error) {
			return shown(ExpFault(s.Scale, PolicyNames(), DefaultFaultOptions(s.Scale)))
		}},
		// Explicit-only because its live rows run on the wall clock, each
		// mode for up to a minute (GCSchedOptions.Duration).
		{Name: "gcsched", Explicit: true, Run: func(s *Session) (string, error) {
			return shown(ExpGCSched(s.Scale, three, DefaultGCSchedOptions(s.Scale)))
		}},
	}
}

// shown renders a result with a trailing blank line, the way every
// table has always been printed, or passes the error on.
func shown[T interface{ Render() string }](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render() + "\n", nil
}

// each renders a list of results, each followed by a blank line.
func each[T interface{ Render() string }](rs []T, err error) (string, error) {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render() + "\n")
	}
	return b.String(), err
}

// onGrid renders an experiment from the session's Fig 8–10 grid.
func onGrid(render func(*Grid) string) func(*Session) (string, error) {
	return func(s *Session) (string, error) {
		g, err := s.grid()
		if err != nil {
			return "", err
		}
		return render(g) + "\n", nil
	}
}
