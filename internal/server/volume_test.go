package server

import (
	"bytes"
	"errors"
	"os"
	"testing"
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

	path := vol.file.Name()
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
	if got := vol.readData(2, 1); !bytes.Equal(got, make([]byte, testBlockBytes)) {
		t.Fatal("a refused write reached the data plane")
	}
}
