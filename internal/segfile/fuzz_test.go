package segfile_test

import (
	"encoding/binary"
	"io"
	"os"
	"testing"

	"adapt/internal/lss"
	"adapt/internal/segfile"
)

// The fuzz target feeds Recover arbitrary directory images. An image
// is serialized as a flat archive: repeated
//
//	u8 nameLen | name | u32be dataLen | data
//
// so the fuzzer can mutate segment headers, tear record tails, flip
// CRC bytes, swap epochs, and truncate files wholesale. Whatever
// survives unpacking becomes a fully-synced MemFS.

const (
	fuzzMaxFiles    = 64
	fuzzMaxFileSize = 1 << 20
)

// unpackArchive builds a MemFS from archive bytes, stopping quietly at
// the first malformed entry.
func unpackArchive(data []byte) *segfile.MemFS {
	mem := segfile.NewMemFS()
	for files := 0; len(data) > 0 && files < fuzzMaxFiles; files++ {
		nameLen := int(data[0])
		data = data[1:]
		if nameLen == 0 || len(data) < nameLen+4 {
			break
		}
		name := string(data[:nameLen])
		data = data[nameLen:]
		size := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if size > fuzzMaxFileSize || size > len(data) {
			break
		}
		f, err := mem.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			break
		}
		_, _ = f.WriteAt(data[:size], 0)
		_ = f.Sync()
		_ = f.Close()
		data = data[size:]
	}
	_ = mem.SyncDir()
	return mem
}

// packArchive serializes every file of fsys into archive bytes.
func packArchive(t testing.TB, fsys segfile.FS) []byte {
	t.Helper()
	names, err := fsys.ReadDir()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	var out []byte
	for _, name := range names {
		f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
		if err != nil {
			t.Fatalf("pack %s: %v", name, err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatalf("pack %s: %v", name, err)
		}
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatalf("pack %s: %v", name, err)
		}
		_ = f.Close()
		out = append(out, byte(len(name)))
		out = append(out, name...)
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], uint32(len(buf)))
		out = append(out, lenb[:]...)
		out = append(out, buf...)
	}
	return out
}

// seedImage drives the deterministic workload into a MemFS and packs
// the resulting directory.
func seedImage(t testing.TB, cfg lss.Config) []byte {
	mem := segfile.NewMemFS()
	sf, err := segfile.Open(segfile.Options{
		FS:                   mem,
		Sync:                 segfile.SyncAlways,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: 4,
	})
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: sf})
	if !driveWorkload(t, s, workloadOps/2) {
		t.Fatalf("seed workload: %v", s.DurableErr())
	}
	if err := sf.Close(); err != nil {
		t.Fatalf("seed close: %v", err)
	}
	return packArchive(t, mem)
}

// FuzzSegfileRecover opens and recovers arbitrary directory images:
// torn headers, truncated tails, flipped CRC bytes, stale epochs,
// hostile lengths. Recover may reject an image, but it must never
// panic, and any store it does build must pass the full invariant
// sweep (so corrupt bytes can never fabricate out-of-range mappings or
// broken accounting).
func FuzzSegfileRecover(f *testing.F) {
	cfg := smallCfg()
	clean := seedImage(f, cfg)
	f.Add(clean)
	f.Add([]byte{})
	// Truncated tail: the last file loses its final bytes.
	if len(clean) > 13 {
		f.Add(clean[:len(clean)-13])
	}
	// Torn header / flipped bytes at several offsets.
	for _, at := range []int{10, len(clean) / 3, len(clean) / 2, len(clean) - 20} {
		if at > 0 && at < len(clean) {
			mut := append([]byte(nil), clean...)
			mut[at] ^= 0x5a
			f.Add(mut)
		}
	}

	// What recycling leaves behind: a zero-length free slot, a reopened
	// slot holding only its header, and one whose header write tore.
	for _, shape := range recycledShapes {
		f.Add(packArchive(f, truncatedSegment(f, clean, shape.size)))
	}

	pol := newPolicy(cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := unpackArchive(data)
		sf, err := segfile.Open(segfile.Options{
			FS:       mem,
			Sync:     segfile.SyncAlways,
			Geometry: cfg.GeometryDefaults(),
		})
		if err != nil {
			return
		}
		if !sf.HasData() {
			return
		}
		rec, _, err := sf.Recover(cfg, pol)
		if err != nil {
			return
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("recovered store from corrupt image violates invariants: %v", err)
		}
		for lba := int64(0); lba < cfg.UserBlocks; lba++ {
			if seg, slot, ok := rec.Location(lba); ok {
				if seg < 0 || seg >= rec.TotalSegments() || slot < 0 || slot >= cfg.SegmentBlocks() {
					t.Fatalf("lba %d mapped out of range: seg %d slot %d", lba, seg, slot)
				}
			}
		}
	})
}

// recycledShapes are the lengths a crash can leave a recycled segment
// file at before its first chunk is durable, and what recovery makes
// of each, relative to the undamaged image: a zero-length file is a
// free slot — kept, not counted corrupt; a header-only file is an
// empty open incarnation; a torn header is dropped whole and counted.
var recycledShapes = []struct {
	size                     int64
	segments, corrupt, files int
}{
	{size: 0, segments: -1},
	{size: 40},
	{size: 23, segments: -1, corrupt: 1, files: -1},
}

// truncatedSegment unpacks archive and cuts its first segment file to
// size bytes, synced.
func truncatedSegment(t testing.TB, archive []byte, size int64) *segfile.MemFS {
	t.Helper()
	mem := unpackArchive(archive)
	names, _ := mem.ReadDir()
	for _, name := range names {
		if name == "checkpoint" {
			continue
		}
		f, err := mem.OpenFile(name, os.O_RDWR, 0)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if err := f.Truncate(size); err != nil {
			t.Fatalf("truncate %s: %v", name, err)
		}
		_ = f.Sync()
		_ = f.Close()
		return mem
	}
	t.Fatal("image has no segment files")
	return nil
}

// TestRecoverRecycledShapes recovers an image holding each of
// recycledShapes and checks the outcome the table states.
func TestRecoverRecycledShapes(t *testing.T) {
	cfg := smallCfg()
	clean := seedImage(t, cfg)
	recover := func(mem *segfile.MemFS) segfile.RecoveryStats {
		sf, err := segfile.Open(segfile.Options{FS: mem, Geometry: cfg.GeometryDefaults()})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		rec, stats, err := sf.Recover(cfg, newPolicy(cfg))
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		return stats
	}
	base := recover(unpackArchive(clean))
	files := func(mem *segfile.MemFS) int {
		names, _ := mem.ReadDir()
		return len(names)
	}
	nfiles := files(unpackArchive(clean))

	for _, tc := range recycledShapes {
		mem := truncatedSegment(t, clean, tc.size)
		stats := recover(mem)
		got := [3]int{stats.Segments - base.Segments, stats.CorruptFiles, files(mem) - nfiles}
		if want := [3]int{tc.segments, tc.corrupt, tc.files}; got != want {
			t.Errorf("first segment file cut to %d bytes: segments/corrupt/files moved by %v, want %v", tc.size, got, want)
		}
	}
}

// TestRecoverCorruptImages runs the fuzz body over a fixed set of
// handcrafted damage patterns so the cases are exercised on every
// plain `go test` run, not only under -fuzz: per-file truncation at
// awkward offsets, a stale-epoch checkpoint, and a segment file whose
// header claims the wrong id.
func TestRecoverCorruptImages(t *testing.T) {
	cfg := smallCfg()
	clean := seedImage(t, cfg)

	damage := []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)*2/3] },
		func(b []byte) []byte { b[len(b)/4] ^= 0xff; return b },
		func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		func(b []byte) []byte { b[len(b)-5] ^= 0x80; return b },
	}
	for i, dmg := range damage {
		data := dmg(append([]byte(nil), clean...))
		mem := unpackArchive(data)
		sf, err := segfile.Open(segfile.Options{
			FS:       mem,
			Sync:     segfile.SyncAlways,
			Geometry: cfg.GeometryDefaults(),
		})
		if err != nil {
			t.Fatalf("damage %d: open: %v", i, err)
		}
		if !sf.HasData() {
			continue
		}
		rec, _, err := sf.Recover(cfg, newPolicy(cfg))
		if err != nil {
			continue
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("damage %d: invariants: %v", i, err)
		}
	}
}

// TestRecoverDropsStaleMisnamedFile plants a segment file whose header
// claims a different id than its name: the scan must drop it whole
// rather than let a stale incarnation masquerade as another segment.
func TestRecoverDropsStaleMisnamedFile(t *testing.T) {
	cfg := smallCfg()
	mem := unpackArchive(seedImage(t, cfg))

	names, _ := mem.ReadDir()
	var segName string
	for _, n := range names {
		if n != "checkpoint" {
			segName = n
			break
		}
	}
	if segName == "" {
		t.Fatal("seed image has no segment files")
	}
	src, err := mem.OpenFile(segName, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := src.Size()
	buf := make([]byte, size)
	if _, err := src.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// Plant the bytes under a free segment id's name; the embedded
	// header id no longer matches the file name.
	total := cfg.TotalSegments(newPolicy(cfg).Groups())
	planted := false
	for id := total - 1; id >= 0; id-- {
		if fileSize(mem, id) == 0 {
			dst, _ := mem.OpenFile(segfileName(id), os.O_RDWR|os.O_CREATE, 0o644)
			_, _ = dst.WriteAt(buf, 0)
			_ = dst.Sync()
			_ = dst.Close()
			_ = mem.SyncDir()
			planted = true
			break
		}
	}
	if !planted {
		t.Fatal("no free id to plant under")
	}

	sf, err := segfile.Open(segfile.Options{
		FS:       mem,
		Sync:     segfile.SyncAlways,
		Geometry: cfg.GeometryDefaults(),
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rec, stats, err := sf.Recover(cfg, newPolicy(cfg))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.CorruptFiles == 0 {
		t.Fatal("misnamed file was not reported corrupt")
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// segfileName mirrors the on-disk naming for test plumbing.
func segfileName(id int) string {
	return segfile.SegmentFileName(id)
}

// fileSize returns the size of id's segment file, zero when there is
// none.
func fileSize(mem *segfile.MemFS, id int) int64 {
	f, err := mem.OpenFile(segfileName(id), os.O_RDONLY, 0)
	if err != nil {
		return 0
	}
	size, _ := f.Size()
	_ = f.Close()
	return size
}
