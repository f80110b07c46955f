package server

import (
	"bytes"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"
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
		var got error
		srv.writeCore(vol, lba, pattern(0, lba, 1), true, nil, func(e error) { got = e })
		return got
	}
	if err := write(0); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	path := vol.file.(*os.File).Name()
	if err := vol.writeData(1, pattern(0, 1, 1)); err != nil {
		t.Fatalf("write-through: %v", err)
	}
	vol.file.Close()
	first := srv.flushCore(vol, nil)
	if !errors.Is(first, os.ErrClosed) {
		t.Fatalf("flush over a closed descriptor: %v, want os.ErrClosed", first)
	}

	healthy, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	vol.file = healthy
	if err := write(2); err != first {
		t.Fatalf("write after a failed fsync: %v, want the latched %v", err, first)
	}
	if err := srv.flushCore(vol, nil); err != first {
		t.Fatalf("flush after a failed fsync: %v, want the latched %v", err, first)
	}
	if got, _ := vol.appendData(nil, 2, 1); !bytes.Equal(got, make([]byte, testBlockBytes)) {
		t.Fatal("a refused write reached the data plane")
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
	v, err := newVolume(0, 0, 16, testBlockBytes, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.releasePlane() })
	v.file = f
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
