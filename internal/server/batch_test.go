package server

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"adapt/internal/prototype"
)

// heldIngest is an engine whose first group commit blocks inside the
// engine until the test opens it. It records every batch it is handed,
// in the order they enter.
type heldIngest struct {
	prototype.Ingest
	entered chan struct{} // closed once the first batch has entered
	release chan struct{}
	open    func() // lets the first batch through; idempotent

	mu      sync.Mutex
	batches [][]prototype.BatchWrite
}

func (h *heldIngest) WriteBatchTimed(ops []prototype.BatchWrite) (prototype.OpTiming, error) {
	h.mu.Lock()
	h.batches = append(h.batches, slices.Clone(ops))
	first := len(h.batches) == 1
	h.mu.Unlock()
	if first {
		close(h.entered)
		<-h.release
	}
	return h.Ingest.WriteBatchTimed(ops)
}

// calls returns the batches that have entered the engine so far.
func (h *heldIngest) calls() [][]prototype.BatchWrite {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.batches)
}

// heldServer builds a one-shard, one-volume server over a heldIngest,
// so every write goes through the same committer.
func heldServer(t *testing.T) (*Server, *heldIngest) {
	t.Helper()
	eng := testEngine(t, 4096, false, false)
	h := &heldIngest{Ingest: eng, entered: make(chan struct{}), release: make(chan struct{})}
	h.open = sync.OnceFunc(func() { close(h.release) })
	srv, err := New(Config{Engine: h, Volumes: 1})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.open()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		eng.Close()
	})
	return srv, h
}

// TestNextGroupIsWhatArrivedDuringCommit: there is no gather. While
// group 1 is in the engine, every write that arrives waits on the
// commit slot behind one leader, however far apart the writes come, and
// that leader claims them all as the next group, in arrival order.
func TestNextGroupIsWhatArrivedDuringCommit(t *testing.T) {
	srv, h := heldServer(t)
	const writes = 16
	acks := make(chan error, writes)
	write := func(lba int64) {
		srv.WriteBlocks(0, lba, make([]byte, srv.BlockBytes()), nil, func(err error) { acks <- err })
	}
	write(0)
	<-h.entered
	for lba := int64(1); lba < writes; lba++ {
		// Wider than any group-commit deadline a gather might hold out
		// for: the spacing must not change the result.
		time.Sleep(200 * time.Microsecond)
		write(lba)
	}
	if n := len(h.calls()); n != 1 {
		t.Fatalf("%d engine calls entered while group 1 held the commit slot, want 1", n)
	}
	if n := len(acks); n != 0 {
		t.Fatalf("%d writes acked while group 1 held the commit slot", n)
	}
	h.open()
	for range writes {
		if err := <-acks; err != nil {
			t.Fatal(err)
		}
	}
	calls := h.calls()
	if len(calls) != 2 {
		t.Fatalf("%d engine calls, want group 1 and one group of the %d writes that waited: %v", len(calls), writes-1, calls)
	}
	want := make([]prototype.BatchWrite, 0, writes-1)
	for lba := int64(1); lba < writes; lba++ {
		want = append(want, prototype.BatchWrite{LBA: lba, Blocks: 1})
	}
	if !slices.Equal(calls[1], want) {
		t.Errorf("second group %v, want %v", calls[1], want)
	}
}

// TestFlushWaitsForHeldAndWaitingGroups: a FLUSH issued while group 1
// holds the commit slot returns only after group 1 and the group waiting
// on the slot have both committed and acked.
func TestFlushWaitsForHeldAndWaitingGroups(t *testing.T) {
	srv, h := heldServer(t)
	var mu sync.Mutex
	acked := 0
	write := func(lba int64) {
		srv.WriteBlocks(0, lba, make([]byte, srv.BlockBytes()), nil, func(err error) {
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			acked++
			mu.Unlock()
		})
	}
	write(0)
	<-h.entered
	write(1) // waits on the slot behind group 1
	type result struct {
		acked int
		err   error
	}
	flushed := make(chan result, 1)
	go func() {
		err := srv.Flush(0, nil)
		mu.Lock()
		defer mu.Unlock()
		flushed <- result{acked, err}
	}()
	// Let the FLUSH take its barrier and spin while group 1 is held.
	for range 100 {
		runtime.Gosched()
		select {
		case r := <-flushed:
			t.Fatalf("FLUSH returned (%v) while group 1 held the commit slot", r.err)
		default:
		}
	}
	h.open()
	r := <-flushed
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.acked != 2 {
		t.Errorf("FLUSH returned with %d of 2 writes acked", r.acked)
	}
	if n := len(h.calls()); n != 2 {
		t.Errorf("FLUSH returned after %d group commits, want 2", n)
	}
}
