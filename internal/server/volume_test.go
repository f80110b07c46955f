package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/server/bufpool"
)

// TestVolumeFsyncErrorLatches fails one fsync of a volume's backing
// file (the descriptor is closed beneath the volume after a write went
// through it), then gives the volume a healthy descriptor again — the
// position a kernel that dropped the failed pages and reports success
// on the next fsync leaves a retrying server in. Every later write and
// FLUSH on the volume must return the first error, not succeed.
func TestVolumeFsyncErrorLatches(t *testing.T) {
	eng := testEngine(t, 1024, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	vol := srv.vols[0]
	write := func(lba int64) error {
		acked := make(chan error, 1)
		srv.writeCore(vol, lba, pattern(0, lba, 1), nil, func(e error) { acked <- e })
		return <-acked
	}
	if err := write(0); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	path := vol.data.(*os.File).Name()
	if err := vol.writeData(1, pattern(0, 1, 1)); err != nil {
		t.Fatalf("write-through: %v", err)
	}
	vol.data.Close()
	first := srv.flushCore(vol, nil)
	if !errors.Is(first, os.ErrClosed) {
		t.Fatalf("flush over a closed descriptor: %v, want os.ErrClosed", first)
	}

	healthy, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	vol.data = healthy
	if err := write(2); err != first {
		t.Fatalf("write after a failed fsync: %v, want the latched %v", err, first)
	}
	if err := srv.flushCore(vol, nil); err != first {
		t.Fatalf("flush after a failed fsync: %v, want the latched %v", err, first)
	}
	if got, _ := vol.appendData(nil, 2, 1); !bytes.Equal(got, make([]byte, testBlockBytes)) {
		t.Fatal("a refused write reached the volume file")
	}
}

// parkedFile is a volume backing file whose Sync announces itself on
// entered (buffered, so a surplus Sync fails a count, not the run) and
// then parks until release is closed or fed.
type parkedFile struct {
	volFile // nil: only WriteAt and Sync are reached
	entered chan struct{}
	release chan struct{}
	syncs   atomic.Int64
}

func (f *parkedFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }

func (f *parkedFile) Sync() error {
	f.syncs.Add(1)
	f.entered <- struct{}{}
	<-f.release
	return nil
}

func newParkedVolume(t *testing.T) (*volume, *parkedFile) {
	f := &parkedFile{entered: make(chan struct{}, 16), release: make(chan struct{})}
	v := newVolume(0, 0, 16, testBlockBytes, 4)
	v.data = f
	return v, f
}

// TestVolumeSyncIsABarrier pins the ack-means-durable ordering between
// two committers of one volume: a syncData whose writes completed
// before another caller's fsync started may share that fsync, but must
// not return while it is still in flight (the dirty-bit swap this
// replaced returned at once — an ack before durable). A write that
// completes after the fsync started is not covered and pays its own.
func TestVolumeSyncIsABarrier(t *testing.T) {
	v, f := newParkedVolume(t)
	for lba := int64(0); lba < 2; lba++ {
		if err := v.writeData(lba, pattern(0, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 2)
	go func() { done <- v.syncData() }()
	<-f.entered // committer A is inside fsync
	go func() { done <- v.syncData() }()
	select {
	case err := <-done:
		t.Fatalf("syncData returned (%v) while the fsync covering its write was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	// A third write lands while A's fsync is parked: not covered.
	if err := v.writeData(2, pattern(0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	f.release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := f.syncs.Load(); n != 1 {
		t.Fatalf("two covered committers cost %d fsyncs, want 1", n)
	}
	go func() { done <- v.syncData() }()
	<-f.entered
	f.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := f.syncs.Load(); n != 2 {
		t.Fatalf("a write that landed mid-fsync was acked after %d fsyncs, want its own second", n)
	}
}

// TestVolumeSyncCoveredCallersShareOneFsync: N committers whose writes
// all completed before the first fsync started cost one fsync between
// them, as the dirty bit did for one group commit.
func TestVolumeSyncCoveredCallersShareOneFsync(t *testing.T) {
	const n = 8
	v, f := newParkedVolume(t)
	for lba := int64(0); lba < n; lba++ {
		if err := v.writeData(lba, pattern(0, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { done <- v.syncData() }()
	}
	<-f.entered
	close(f.release)
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := f.syncs.Load(); got != 1 {
		t.Fatalf("%d covered callers cost %d fsyncs, want 1", n, got)
	}
}

// countingFile is a vol-N.dat that counts the ReadAt calls reaching it.
type countingFile struct {
	*os.File
	reads atomic.Int64
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.File.ReadAt(p, off)
}

// ioReadChars returns the bytes this process has read through read-like
// syscalls (rchar in /proc/self/io); ok is false where the file does not
// exist.
func ioReadChars(t *testing.T) (n int64, ok bool) {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, found := strings.CutPrefix(line, "rchar: "); found {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n, true
		}
	}
	t.Fatalf("no rchar in /proc/self/io:\n%s", raw)
	return 0, false
}

// TestBootReadsNoPayload: a data-dir boot sizes each vol-N.dat and reads
// none of it — the bytes stay in the file and a READ preads them on
// demand — so a restart costs the same at any volume size. Attaching a
// counting file issues no ReadAt until the first READ, and a whole boot
// over two 1 MiB volume files reads a small fraction of one.
func TestBootReadsNoPayload(t *testing.T) {
	const volumes, volBlocks = 2, 16384
	volBytes := int64(volBlocks * testBlockBytes)
	dir := t.TempDir()
	eng := testEngine(t, volumes*volBlocks, false, false)
	defer eng.Close()
	boot := func() *Server {
		t.Helper()
		srv, err := New(Config{Engine: eng, Volumes: volumes, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	shutdown := func(srv *Server) {
		t.Helper()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	srv := boot()
	acked := make(chan error, 1)
	srv.WriteBlocks(0, 5, pattern(0, 5, 1), nil, func(err error) { acked <- err })
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	shutdown(srv)

	before, haveIO := ioReadChars(t)
	srv = boot()
	if after, _ := ioReadChars(t); haveIO && after-before > volBytes/16 {
		t.Errorf("boot over %d volume files of %d bytes read %d bytes", volumes, volBytes, after-before)
	}
	shutdown(srv)

	f, err := os.OpenFile(filepath.Join(dir, "vol-0.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	cf := &countingFile{File: f}
	v := newVolume(0, 0, volBlocks, testBlockBytes, 1)
	if err := v.attachFile(cf); err != nil {
		t.Fatal(err)
	}
	defer v.closeData()
	if n := cf.reads.Load(); n != 0 {
		t.Fatalf("attaching the volume file issued %d ReadAt calls, want 0", n)
	}
	got, err := v.appendData(nil, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(0, 5, 1)) {
		t.Fatal("a READ after reboot does not return the acked write")
	}
	if n := cf.reads.Load(); n != 1 {
		t.Fatalf("one READ issued %d ReadAt calls, want 1", n)
	}
}

// TestReadOverlappingWriteIsWhole races READs of a multi-page range on a
// file-backed volume against WRITEs that alternate two fills of the same
// range: every READ returns all of one fill, never a mix. A page cache
// promises no such thing between a pread and a pwrite; the volume's
// lock does. Run under -race it also checks the store's synchronization.
func TestReadOverlappingWriteIsWhole(t *testing.T) {
	const blocks = 192 // three 4 KiB pages of 64-byte blocks
	eng := testEngine(t, 1024, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	fills := [2][]byte{
		bytes.Repeat([]byte{0xa1}, blocks*testBlockBytes),
		bytes.Repeat([]byte{0xb2}, blocks*testBlockBytes),
	}
	write := func(i int) error {
		acked := make(chan error, 1)
		srv.WriteBlocks(0, 0, fills[i%2], nil, func(err error) { acked <- err })
		return <-acked
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	written := make(chan error, 1)
	go func() {
		defer close(stop)
		for i := 1; i <= 400; i++ {
			if err := write(i); err != nil {
				written <- err
				return
			}
		}
		written <- nil
	}()
	reads := 0
	for done := false; !done; reads++ {
		select {
		case <-stop:
			done = true
		default:
		}
		got, err := srv.ReadBlocks(0, 0, blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fills[0]) && !bytes.Equal(got, fills[1]) {
			t.Fatalf("read %d returned a mix of two writes (first byte %#x, last %#x)", reads, got[0], got[len(got)-1])
		}
		bufpool.Put(got)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
}
