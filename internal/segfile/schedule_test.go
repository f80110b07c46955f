package segfile_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// fsCounts are the flush- and namespace-level calls a store issued
// through the FS seam.
type fsCounts struct {
	fileSyncs, dirSyncs, removes, creates int
}

// countingFS counts them.
type countingFS struct {
	segfile.FS
	fsCounts
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (segfile.File, error) {
	if flag&os.O_CREATE != 0 {
		c.creates++
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Remove(name string) error {
	c.removes++
	return c.FS.Remove(name)
}

func (c *countingFS) SyncDir() error {
	c.dirSyncs++
	return c.FS.SyncDir()
}

// take returns the counts since the last take and zeroes them.
func (c *countingFS) take() fsCounts {
	out := c.fsCounts
	c.fsCounts = fsCounts{}
	return out
}

type countingFile struct {
	segfile.File
	fs *countingFS
}

func (f *countingFile) Sync() error {
	f.fs.fileSyncs++
	return f.File.Sync()
}

// fillSegment appends every chunk of segment seg, mapping lba0 onward
// at versions ver0 onward.
func fillSegment(t *testing.T, sf *segfile.Store, cfg lss.Config, seg int, lba0, ver0 int64) {
	t.Helper()
	for ci := 0; ci < cfg.SegmentChunks; ci++ {
		appendChunk(t, sf, cfg, seg, ci, lba0+int64(ci*cfg.ChunkBlocks), ver0+int64(ci*cfg.ChunkBlocks))
	}
}

func appendChunk(t *testing.T, sf *segfile.Store, cfg lss.Config, seg, ci int, lba0, ver0 int64) {
	t.Helper()
	c := lss.DurableChunk{Segment: seg, Chunk: ci, W: sim.WriteClock(ver0), Now: sim.Time(ver0)}
	for i := 0; i < cfg.ChunkBlocks; i++ {
		c.LBAs = append(c.LBAs, lba0+int64(i))
		c.Vers = append(c.Vers, ver0+int64(i))
	}
	if err := sf.AppendChunk(c); err != nil {
		t.Fatalf("append segment %d chunk %d: %v", seg, ci, err)
	}
}

func must(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestFlushSchedule pins the steady-state flush schedule under
// SyncOnSeal: once a segment id's file exists, a seal → free → reopen
// cycle costs one file sync at seal and one at free (plus one per file
// that is actually dirty at the free), and never creates, unlinks or
// syncs the directory.
func TestFlushSchedule(t *testing.T) {
	cfg := smallCfg()
	cfs := &countingFS{FS: segfile.NewMemFS()}
	sf, err := segfile.Open(segfile.Options{
		FS:                   cfs,
		Sync:                 segfile.SyncOnSeal,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: -1,
	})
	must(t, "open", err)
	cfs.take()

	// First use of two names: each is created once, and its directory
	// entry syncs with the first file sync that covers it.
	must(t, "open 0", sf.OpenSegment(0, 0, 1))
	fillSegment(t, sf, cfg, 0, 0, 1)
	if got, want := cfs.take(), (fsCounts{creates: 1}); got != want {
		t.Fatalf("open+fill of a new name: %+v, want %+v", got, want)
	}
	must(t, "seal 0", sf.SealSegment(0, 100))
	if got, want := cfs.take(), (fsCounts{fileSyncs: 1, dirSyncs: 1}); got != want {
		t.Fatalf("first seal of a new name: %+v, want %+v", got, want)
	}
	must(t, "open 1", sf.OpenSegment(1, 1, 101))
	appendChunk(t, sf, cfg, 1, 0, 0, 101)
	must(t, "free 0", sf.FreeSegment(0))
	if got, want := cfs.take(), (fsCounts{fileSyncs: 2, dirSyncs: 1, creates: 1}); got != want {
		t.Fatalf("free with a dirty new name: %+v, want %+v", got, want)
	}

	// Steady state: id 0 is recycled, id 1 is linked.
	for cycle := 0; cycle < 3; cycle++ {
		ver := int64(200 + 100*cycle)
		must(t, "reopen 0", sf.OpenSegment(0, 0, sim.WriteClock(ver)))
		fillSegment(t, sf, cfg, 0, 16, ver)
		if got, want := cfs.take(), (fsCounts{}); got != want {
			t.Fatalf("cycle %d reopen+fill of a recycled id: %+v, want %+v", cycle, got, want)
		}
		must(t, "seal 0", sf.SealSegment(0, sim.WriteClock(ver+50)))
		if got, want := cfs.take(), (fsCounts{fileSyncs: 1}); got != want {
			t.Fatalf("cycle %d seal: %+v, want %+v", cycle, got, want)
		}
		wantFree := fsCounts{fileSyncs: 1}
		if cycle == 1 {
			// One other file is dirty at the free: one pre-free sync.
			appendChunk(t, sf, cfg, 1, 1, 4, ver+60)
			wantFree.fileSyncs = 2
		}
		must(t, "free 0", sf.FreeSegment(0))
		if got := cfs.take(); got != wantFree {
			t.Fatalf("cycle %d free: %+v, want %+v", cycle, got, wantFree)
		}
	}
	if st := sf.Stats(); st.DirSyncs != 3 {
		t.Fatalf("Stats.DirSyncs = %d, want 3 (scan, two first-time names)", st.DirSyncs)
	}
	must(t, "close", sf.Close())
}

// TestRecycleODirectRoundTrip frees and reopens a segment id on the
// real filesystem, re-lays the result the way a predecessor run with
// the since-removed -odirect flag wrote its files (header block and
// every record padded to 512 bytes), then recovers: the freed name
// must be a zero-length file while free, and recovery must read the
// padded layout and surface the second incarnation only.
func TestRecycleODirectRoundTrip(t *testing.T) {
	cfg := smallCfg()
	dir := t.TempDir()
	opts := segfile.Options{
		Dir:                  dir,
		Sync:                 segfile.SyncOnSeal,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: -1,
	}
	sf, err := segfile.Open(opts)
	must(t, "open", err)

	must(t, "open 0", sf.OpenSegment(0, 0, 1))
	fillSegment(t, sf, cfg, 0, 0, 1)
	must(t, "seal 0", sf.SealSegment(0, 100))
	must(t, "free 0", sf.FreeSegment(0))
	fi, err := os.Stat(filepath.Join(dir, segfile.SegmentFileName(0)))
	must(t, "stat freed file", err)
	if fi.Size() != 0 {
		t.Fatalf("freed segment file is %d bytes, want a zero-length free slot", fi.Size())
	}

	must(t, "reopen 0", sf.OpenSegment(0, 1, 200))
	fillSegment(t, sf, cfg, 0, 64, 200)
	must(t, "seal 0 again", sf.SealSegment(0, 300))
	must(t, "close", sf.Close())

	path := filepath.Join(dir, segfile.SegmentFileName(0))
	buffered, err := os.ReadFile(path)
	must(t, "read segment file", err)
	direct, err := segfile.DirectLayout(buffered, 512)
	must(t, "re-lay as O_DIRECT", err)
	if len(direct)%512 != 0 || len(direct) <= len(buffered) {
		t.Fatalf("O_DIRECT layout is %d bytes from %d buffered, want a larger multiple of 512", len(direct), len(buffered))
	}
	must(t, "write O_DIRECT layout", os.WriteFile(path, direct, 0o644))

	sf2, err := segfile.Open(opts)
	must(t, "reopen store", err)
	defer sf2.Close()
	rec, stats, err := sf2.Recover(cfg, newPolicy(cfg))
	must(t, "recover", err)
	if stats.Segments != 1 || stats.SealedSegments != 1 || stats.TornRecords != 0 || stats.CorruptFiles != 0 {
		t.Fatalf("recovery stats %+v, want one clean sealed segment", stats)
	}
	for i := int64(0); i < int64(cfg.SegmentBlocks()); i++ {
		if _, _, ok := rec.Location(i); ok {
			t.Fatalf("lba %d of the freed incarnation resurfaced", i)
		}
		if seg, slot, ok := rec.Location(64 + i); !ok || seg != 0 || slot != int(i) {
			t.Fatalf("lba %d at (%d,%d,%v), want segment 0 slot %d", 64+i, seg, slot, ok, i)
		}
	}
	must(t, "invariants", rec.CheckInvariants())
}
