package segfile_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// fsCounts are the flush- and namespace-level calls a store issued
// through the FS seam. The seam has no rename or unlink at all.
type fsCounts struct {
	fileSyncs, dirSyncs, opens, creates, truncates, closes int
}

// countingFS counts them.
type countingFS struct {
	segfile.FS
	fsCounts
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (segfile.File, error) {
	c.opens++
	if flag&os.O_CREATE != 0 {
		c.creates++
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
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

func (f *countingFile) Truncate(size int64) error {
	f.fs.truncates++
	return f.File.Truncate(size)
}

func (f *countingFile) Close() error {
	f.fs.closes++
	return f.File.Close()
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

// commit runs the log commit inline and returns the ids it handed
// back.
func commit(t *testing.T, sf *segfile.Store) []int {
	t.Helper()
	freed, err := sf.Commit()
	must(t, "commit", err)
	return freed
}

// TestFlushSchedule pins the flush schedule under SyncOnSeal. Boot
// creates the log once — one create, one sizing truncate, one file and
// one directory sync — and a reboot opens it with one of each sync.
// After boot, seals, frees and appends issue no syscall but their
// writes: they only record, and a commit pays for them with one sync
// of the log file, covering every dirty segment, and one more when it
// frees, covering every victim's zeroing — however many segments and
// victims, and however the frees and the relocation appends
// interleaved. A seal alone is not Pending: only an inline commit
// takes it. Nothing after boot opens, creates, truncates, closes or
// syncs the directory, until Close closes the file.
func TestFlushSchedule(t *testing.T) {
	cfg := smallCfg()
	mem := segfile.NewMemFS()
	cfs := &countingFS{FS: mem}
	opts := segfile.Options{
		FS:                   cfs,
		Sync:                 segfile.SyncOnSeal,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: -1,
	}
	sf, err := segfile.Open(opts)
	must(t, "open", err)
	step := func(what string, want fsCounts) {
		t.Helper()
		if got := cfs.take(); got != want {
			t.Fatalf("%s: %+v, want %+v", what, got, want)
		}
	}
	step("boot of a new log", fsCounts{fileSyncs: 1, dirSyncs: 1, opens: 1, creates: 1, truncates: 1})

	must(t, "open 0", sf.OpenSegment(0, 0, 1))
	fillSegment(t, sf, cfg, 0, 0, 1)
	step("open+fill", fsCounts{})
	must(t, "seal 0", sf.SealSegment(0, 100))
	step("seal records only", fsCounts{})
	// A seal alone is not Pending: the leader's off-lock commit leaves
	// it to ride the next free or checkpoint; an inline one takes it.
	if sf.Pending() {
		t.Fatal("a seal alone is Pending")
	}
	sf.CommitOutside(&sync.Mutex{}, func([]int, error) { t.Fatal("an off-lock commit ran for a seal alone") })
	step("off-lock commit of a seal alone", fsCounts{})
	if freed := commit(t, sf); len(freed) != 0 {
		t.Fatalf("commit without frees handed back %v", freed)
	}
	step("commit of a seal", fsCounts{fileSyncs: 1})
	if sf.Pending() {
		t.Fatal("Pending after a commit")
	}
	must(t, "open 1", sf.OpenSegment(1, 1, 101))
	appendChunk(t, sf, cfg, 1, 0, 0, 101)
	must(t, "free 0", sf.FreeSegment(0))
	step("free records only", fsCounts{})
	if !sf.Pending() {
		t.Fatal("a recorded free is not Pending")
	}
	if freed := commit(t, sf); len(freed) != 1 || freed[0] != 0 {
		t.Fatalf("commit handed back %v, want [0]", freed)
	}
	step("commit of a free with a dirty segment", fsCounts{fileSyncs: 2})

	// Steady state: id 0 is reused.
	for cycle := 0; cycle < 3; cycle++ {
		ver := int64(200 + 100*cycle)
		must(t, "reopen 0", sf.OpenSegment(0, 0, sim.WriteClock(ver)))
		fillSegment(t, sf, cfg, 0, 16, ver)
		step(fmt.Sprintf("cycle %d reopen+fill of a reused id", cycle), fsCounts{})
		must(t, "seal 0", sf.SealSegment(0, sim.WriteClock(ver+50)))
		commit(t, sf)
		step(fmt.Sprintf("cycle %d seal commit", cycle), fsCounts{fileSyncs: 1})
		if cycle == 1 {
			appendChunk(t, sf, cfg, 1, 1, 4, ver+60)
		}
		must(t, "free 0", sf.FreeSegment(0))
		commit(t, sf)
		step(fmt.Sprintf("cycle %d free commit", cycle), fsCounts{fileSyncs: 2})
	}

	// Batching: three seals in one commit cost one sync; then k = 3
	// victims (ids 0, 2, 3) freed with relocation appends to d = 2 open
	// segments (ids 1, 4) between the frees, as a GC cycle makes them,
	// cost two.
	must(t, "reopen 0", sf.OpenSegment(0, 0, 600))
	fillSegment(t, sf, cfg, 0, 16, 600)
	must(t, "seal 0", sf.SealSegment(0, 650))
	for _, id := range []int{2, 3} {
		ver := int64(700 + 100*id)
		must(t, "open", sf.OpenSegment(id, 0, sim.WriteClock(ver)))
		fillSegment(t, sf, cfg, id, 32, ver)
		must(t, "seal", sf.SealSegment(id, sim.WriteClock(ver+50)))
	}
	must(t, "open 4", sf.OpenSegment(4, 1, 1100))
	commit(t, sf)
	step("commit of three seals", fsCounts{fileSyncs: 1})
	ci := 2
	for _, id := range []int{0, 2, 3} {
		must(t, "free", sf.FreeSegment(id))
		appendChunk(t, sf, cfg, 1, ci, 8, int64(1200+10*ci))
		appendChunk(t, sf, cfg, 4, ci-2, 12, int64(1300+10*ci))
		ci++
	}
	step("three frees between relocation appends", fsCounts{})
	if freed := commit(t, sf); len(freed) != 3 {
		t.Fatalf("batched commit handed back %v, want three victims", freed)
	}
	step("batched commit, d = 2 and k = 3", fsCounts{fileSyncs: 2})

	// Appends no commit covered: Close syncs them once.
	appendChunk(t, sf, cfg, 4, 3, 20, 1400)
	must(t, "close", sf.Close())
	step("close with a dirty tail", fsCounts{fileSyncs: 1, closes: 1})
	if st := sf.Stats(); st.DirSyncs != 1 {
		t.Fatalf("Stats.DirSyncs = %d, want 1 (boot)", st.DirSyncs)
	}

	sf2, err := segfile.Open(opts)
	must(t, "reopen log", err)
	step("boot of an existing log", fsCounts{fileSyncs: 1, dirSyncs: 1, opens: 1})
	must(t, "close reopened", sf2.Close())
}

// TestReopenRetiringCommitsFirst: a caller that reaches the store
// through a wrapper hiding Commit reuses a freed id at once; the reopen
// commits inline first, so the victim's free is durable, and its region
// zeroed, before the new incarnation's header lands on it.
func TestReopenRetiringCommitsFirst(t *testing.T) {
	cfg := smallCfg()
	mem := segfile.NewMemFS()
	opts := segfile.Options{FS: mem, Sync: segfile.SyncOnSeal, Geometry: cfg.GeometryDefaults(), CheckpointEverySeals: -1}
	sf, err := segfile.Open(opts)
	must(t, "open", err)
	must(t, "open 0", sf.OpenSegment(0, 0, 1))
	fillSegment(t, sf, cfg, 0, 0, 1)
	must(t, "seal 0", sf.SealSegment(0, 100))
	must(t, "free 0", sf.FreeSegment(0))
	must(t, "reopen 0", sf.OpenSegment(0, 1, 200))
	fillSegment(t, sf, cfg, 0, 64, 200)
	must(t, "seal 0 again", sf.SealSegment(0, 300))
	must(t, "close", sf.Close())

	sf2, err := segfile.Open(segfile.Options{FS: mem.CrashImage(), Geometry: cfg.GeometryDefaults()})
	must(t, "reopen store", err)
	defer sf2.Close()
	rec, stats, err := sf2.Recover(cfg, newPolicy(cfg))
	must(t, "recover", err)
	if stats.Segments != 1 || stats.SealedSegments != 1 {
		t.Fatalf("recovery stats %+v, want the second incarnation alone", stats)
	}
	if seg, slot, ok := rec.Location(64); !ok || seg != 0 || slot != 0 {
		t.Fatalf("lba 64 at (%d,%d,%v), want segment 0 slot 0", seg, slot, ok)
	}
}

// TestRecycleRoundTripDirFS frees and reopens a segment id on the real
// filesystem, then recovers: while free the region must read as zeros
// in a log whose size never changed, and recovery must surface the
// second incarnation only.
func TestRecycleRoundTripDirFS(t *testing.T) {
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
	path := filepath.Join(dir, segfile.LogName)
	fi, err := os.Stat(path)
	must(t, "stat log", err)
	size := fi.Size()

	must(t, "open 0", sf.OpenSegment(0, 0, 1))
	fillSegment(t, sf, cfg, 0, 0, 1)
	must(t, "seal 0", sf.SealSegment(0, 100))
	must(t, "free 0", sf.FreeSegment(0))
	commit(t, sf)
	raw, err := os.ReadFile(path)
	must(t, "read log", err)
	off := segfile.RegionOffset(cfg, 0)
	if region := raw[off : off+segfile.RegionBytes(cfg)]; slices.ContainsFunc(region, func(b byte) bool { return b != 0 }) {
		t.Fatal("freed region does not read as zeros")
	}

	must(t, "reopen 0", sf.OpenSegment(0, 1, 200))
	fillSegment(t, sf, cfg, 0, 64, 200)
	must(t, "seal 0 again", sf.SealSegment(0, 300))
	must(t, "close", sf.Close())
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("log is %v bytes (%v) after use, %d at creation", fi.Size(), err, size)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("log directory holds %d entries, want the one log file", len(ents))
	}

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
