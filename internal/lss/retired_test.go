package lss

import (
	"slices"
	"testing"

	"adapt/internal/sim"
)

// deferLog is a LogCommitter that records frees and hands them back only
// from Commit, and fails the test if a segment id is reopened while its
// free is still queued.
type deferLog struct {
	t       *testing.T
	queued  []int
	commits int
}

func (d *deferLog) OpenSegment(id int, _ GroupID, _ sim.WriteClock) error {
	if slices.Contains(d.queued, id) {
		d.t.Errorf("segment %d reopened before the commit of its free", id)
	}
	return nil
}
func (d *deferLog) AppendChunk(DurableChunk) error                   { return nil }
func (d *deferLog) SealSegment(int, sim.WriteClock) error            { return nil }
func (d *deferLog) FreeSegment(id int) error                         { d.queued = append(d.queued, id); return nil }
func (d *deferLog) Checkpoint(sim.WriteClock, int64, sim.Time) error { return nil }

func (d *deferLog) Commit() ([]int, error) {
	d.commits++
	freed := d.queued
	d.queued = nil
	return freed, nil
}

// churn overwrites a hot range until GC has reclaimed segments, calling
// after (if set) following every write.
func churn(t *testing.T, s *Store, after func()) {
	t.Helper()
	rng := sim.NewRNG(3)
	for i := 0; i < 20000; i++ {
		if err := s.WriteBlock(rng.Int63n(512), sim.Time(i)); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
	if s.Metrics().SegmentsReclaimed == 0 {
		t.Fatal("the churn reclaimed nothing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredWaitForCommit: a reclaimed segment of a store whose log
// commits is retired — counted free by GC, never allocated — until a
// commit hands it back. Committed after every write, as the served
// leader does, allocation never has to commit inline.
func TestRetiredWaitForCommit(t *testing.T) {
	log := &deferLog{t: t}
	s := New(smallConfig(), twoGroup{}, Deps{Durable: log})
	churn(t, s, func() {
		if len(s.retired) > 0 && s.FreeSegments() != len(s.free)+len(s.retired) {
			t.Fatalf("FreeSegments %d, want free %d + retired %d", s.FreeSegments(), len(s.free), len(s.retired))
		}
		s.DurableCommitted(log.Commit())
	})
	if n := s.Metrics().DurableInlineCommits; n != 0 {
		t.Errorf("%d inline commits with a commit after every write", n)
	}
}

// TestInlineCommitWhenOnlyRetiredRemain: with nobody committing, the
// pool drains into the retired list, and allocation then commits
// inline, counting each such commit.
func TestInlineCommitWhenOnlyRetiredRemain(t *testing.T) {
	log := &deferLog{t: t}
	s := New(smallConfig(), twoGroup{}, Deps{Durable: log})
	churn(t, s, nil)
	n := s.Metrics().DurableInlineCommits
	if n == 0 || int64(log.commits) != n {
		t.Fatalf("%d inline commits, %d log commits: want the same, nonzero", n, log.commits)
	}
}
