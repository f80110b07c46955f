package segfile_test

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"adapt/internal/lss"
	"adapt/internal/segfile"
)

// The fuzz target feeds Recover arbitrary directory images. An image
// is serialized as a flat archive: repeated
//
//	u8 nameLen | name | u32be dataLen | data
//
// so the fuzzer can mutate region headers, tear record tails, flip CRC
// bytes, swap epochs, and cut the log short. Whatever survives
// unpacking becomes a fully-synced MemFS. The corpus under testdata/
// holds archives of the version 1 layout (one file per segment): Open
// refuses them by name, with ErrFormatVersion.

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
		// A sparse log is mostly zeros at its end; the archive keeps
		// what precedes them, and Open sizes a short file back up.
		for len(buf) > 0 && buf[len(buf)-1] == 0 {
			buf = buf[:len(buf)-1]
		}
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

	// What reuse leaves behind: a zeroed free region, a reopened
	// region holding only its header, and one whose header write tore.
	for _, shape := range recycledShapes {
		f.Add(packArchive(f, cutRegion(f, clean, shape.size)))
	}
	// A version 1 directory: refused by name.
	f.Add(v1Archive())

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

// recycledShapes are the lengths a crash can leave a reused region at
// before its first chunk is durable, and what recovery makes of each,
// relative to the undamaged image: a zeroed region is free — not
// counted corrupt; a header-only region is an empty incarnation; a
// torn header is dropped whole, counted, and zeroed.
var recycledShapes = []struct {
	size              int64
	segments, corrupt int
}{
	{size: 0, segments: -1},
	{size: 36},
	{size: 23, segments: -1, corrupt: 1},
}

// v1Archive is a version 1 directory: one segment file and the
// checkpoint file.
func v1Archive() []byte {
	var out []byte
	for _, name := range []string{"seg-00000.seg", "checkpoint"} {
		data := []byte("ADPTSEG1")
		if name == "checkpoint" {
			data = []byte("ADPTCKF1")
		}
		out = append(out, byte(len(name)))
		out = append(out, name...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
		out = append(out, data...)
	}
	return out
}

// readLog returns the log file of mem, sized as it is.
func readLog(t testing.TB, mem *segfile.MemFS) (segfile.File, int64) {
	t.Helper()
	f, err := mem.OpenFile(segfile.LogName, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatalf("size log: %v", err)
	}
	return f, size
}

// firstRegion returns the lowest segment id whose region holds a
// header in mem's log.
func firstRegion(t testing.TB, cfg lss.Config, mem *segfile.MemFS) int {
	t.Helper()
	f, size := readLog(t, mem)
	magic := make([]byte, 8)
	for id := 0; segfile.RegionOffset(cfg, id) < size; id++ {
		if _, err := f.ReadAt(magic, segfile.RegionOffset(cfg, id)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(magic) == "ADPTSEG2" {
			return id
		}
	}
	t.Fatal("image has no segment regions")
	return -1
}

// cutRegion unpacks archive and zeroes its first segment region from
// byte size on, synced.
func cutRegion(t testing.TB, archive []byte, size int64) *segfile.MemFS {
	t.Helper()
	cfg := smallCfg()
	mem := unpackArchive(archive)
	id := firstRegion(t, cfg, mem)
	f, _ := readLog(t, mem)
	zeros := make([]byte, segfile.RegionBytes(cfg)-size)
	if _, err := f.WriteAt(zeros, segfile.RegionOffset(cfg, id)+size); err != nil {
		t.Fatal(err)
	}
	_ = f.Sync()
	return mem
}

// TestRecoverRecycledShapes recovers an image holding each of
// recycledShapes and checks the outcome the table states — and that
// Open left the region reading as what recovery made of it.
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
	id := firstRegion(t, cfg, unpackArchive(clean))

	for _, tc := range recycledShapes {
		mem := cutRegion(t, clean, tc.size)
		stats := recover(mem)
		got := [2]int{stats.Segments - base.Segments, stats.CorruptFiles}
		if want := [2]int{tc.segments, tc.corrupt}; got != want {
			t.Errorf("first region cut to %d bytes: segments/corrupt moved by %v, want %v", tc.size, got, want)
		}
		f, _ := readLog(t, mem)
		region := make([]byte, segfile.RegionBytes(cfg))
		if _, err := f.ReadAt(region, segfile.RegionOffset(cfg, id)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if zero := !slices.ContainsFunc(region, func(b byte) bool { return b != 0 }); zero != (tc.segments < 0) {
			t.Errorf("first region cut to %d bytes: after Open it reads all zero = %v, want %v", tc.size, zero, tc.segments < 0)
		}
	}
}

// TestRecoverCorruptImages runs the fuzz body over a fixed set of
// handcrafted damage patterns so the cases are exercised on every
// plain `go test` run, not only under -fuzz: the archive cut short and
// bytes flipped at awkward offsets — region headers, records and the
// checkpoint slots.
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

// TestRecoverDropsStaleMisnamedFile plants a copy of a region in a
// free one, so its header claims a different id than its place: the
// scan must drop it whole rather than let a stale incarnation
// masquerade as another segment.
func TestRecoverDropsStaleMisnamedFile(t *testing.T) {
	cfg := smallCfg()
	mem := unpackArchive(seedImage(t, cfg))
	src := firstRegion(t, cfg, mem)
	f, size := readLog(t, mem)
	region := make([]byte, segfile.RegionBytes(cfg))
	if _, err := f.ReadAt(region, segfile.RegionOffset(cfg, src)); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// Plant the bytes in the highest region of the store: free, and
	// past the end of the archived (zero-trimmed) log.
	total := cfg.TotalSegments(newPolicy(cfg).Groups())
	dst := total - 1
	if segfile.RegionOffset(cfg, dst) < size {
		t.Fatalf("region %d is inside the archived log; pick a free one", dst)
	}
	if _, err := f.WriteAt(region, segfile.RegionOffset(cfg, dst)); err != nil {
		t.Fatal(err)
	}
	_ = f.Sync()

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
		t.Fatal("misplaced region was not reported corrupt")
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestV1DirectoryRefused: a directory of the version 1 layout — the
// fuzz corpus's archives and a handcrafted one — is refused with
// ErrFormatVersion, and the error names both versions.
func TestV1DirectoryRefused(t *testing.T) {
	cfg := smallCfg()
	archives := map[string][]byte{"handcrafted": v1Archive()}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegfileRecover")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		archives[e.Name()] = []byte(data)
	}
	if len(archives) < 5 {
		t.Fatalf("only %d archives; the corpus is missing", len(archives))
	}
	for name, data := range archives {
		_, err := segfile.Open(segfile.Options{FS: unpackArchive(data), Geometry: cfg.GeometryDefaults()})
		if !errors.Is(err, segfile.ErrFormatVersion) {
			t.Errorf("%s: open = %v, want ErrFormatVersion", name, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "v1") || !strings.Contains(msg, "v2") {
			t.Errorf("%s: %q does not name both versions", name, msg)
		}
	}
}
