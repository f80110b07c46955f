package segfile_test

import (
	"fmt"
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

// commit runs the log commit inline and returns the ids it handed
// back.
func commit(t *testing.T, sf *segfile.Store) []int {
	t.Helper()
	freed, err := sf.Commit()
	must(t, "commit", err)
	return freed
}

// TestFlushSchedule pins the flush schedule under SyncOnSeal: seals and
// frees issue no syscall of their own — they only record — and the
// commit pays for them: one file sync per sealed file, and, with k
// frees queued and d dirty files, d + k file syncs (each dirty file
// once, each victim's truncate once), however the frees and the
// relocation appends interleaved — not the k·(d+1) an inline pre-free
// sync per victim would cost. Once a segment id's file exists, nothing
// creates, unlinks or syncs the directory.
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
	step := func(what string, want fsCounts) {
		t.Helper()
		if got := cfs.take(); got != want {
			t.Fatalf("%s: %+v, want %+v", what, got, want)
		}
	}

	// First use of two names: each is created once, and its directory
	// entry syncs with the first commit that syncs the file.
	must(t, "open 0", sf.OpenSegment(0, 0, 1))
	fillSegment(t, sf, cfg, 0, 0, 1)
	step("open+fill of a new name", fsCounts{creates: 1})
	must(t, "seal 0", sf.SealSegment(0, 100))
	step("seal records only", fsCounts{})
	if freed := commit(t, sf); len(freed) != 0 {
		t.Fatalf("commit without frees handed back %v", freed)
	}
	step("commit of the first seal of a new name", fsCounts{fileSyncs: 1, dirSyncs: 1})
	if sf.Pending() {
		t.Fatal("Pending after a commit")
	}
	must(t, "open 1", sf.OpenSegment(1, 1, 101))
	appendChunk(t, sf, cfg, 1, 0, 0, 101)
	must(t, "free 0", sf.FreeSegment(0))
	step("free records only", fsCounts{creates: 1})
	if !sf.Pending() {
		t.Fatal("a recorded free is not Pending")
	}
	if freed := commit(t, sf); len(freed) != 1 || freed[0] != 0 {
		t.Fatalf("commit handed back %v, want [0]", freed)
	}
	step("commit of a free with a dirty new name", fsCounts{fileSyncs: 2, dirSyncs: 1})

	// Steady state: id 0 is recycled, id 1 is linked.
	for cycle := 0; cycle < 3; cycle++ {
		ver := int64(200 + 100*cycle)
		must(t, "reopen 0", sf.OpenSegment(0, 0, sim.WriteClock(ver)))
		fillSegment(t, sf, cfg, 0, 16, ver)
		step(fmt.Sprintf("cycle %d reopen+fill of a recycled id", cycle), fsCounts{})
		must(t, "seal 0", sf.SealSegment(0, sim.WriteClock(ver+50)))
		commit(t, sf)
		step(fmt.Sprintf("cycle %d seal commit", cycle), fsCounts{fileSyncs: 1})
		wantFree := fsCounts{fileSyncs: 1}
		if cycle == 1 {
			// One other file is dirty at the free: one pre-free sync.
			appendChunk(t, sf, cfg, 1, 1, 4, ver+60)
			wantFree.fileSyncs = 2
		}
		must(t, "free 0", sf.FreeSegment(0))
		commit(t, sf)
		step(fmt.Sprintf("cycle %d free commit", cycle), wantFree)
	}

	// Batching: k = 3 victims (ids 0, 2, 3) freed with relocation
	// appends to d = 2 open files (ids 1, 4) between the frees, as a GC
	// cycle makes them. The commit syncs each dirty file once, then
	// truncates each victim: d + k.
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
	step("commit of three seals, two of new names", fsCounts{fileSyncs: 3, dirSyncs: 1, creates: 3})
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
	// Segment 4's name is new, so its first sync brings the directory.
	step("batched commit, d = 2 and k = 3", fsCounts{fileSyncs: 2 + 3, dirSyncs: 1})

	if st := sf.Stats(); st.DirSyncs != 5 {
		t.Fatalf("Stats.DirSyncs = %d, want 5 (scan, four commits covering new names)", st.DirSyncs)
	}
	must(t, "close", sf.Close())
}

// TestReopenRetiringCommitsFirst: a caller that reaches the store
// through a wrapper hiding Commit reuses a freed id at once; the reopen
// commits inline first, so the victim's truncate lands before the new
// incarnation's header, never on it.
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
	commit(t, sf)
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
