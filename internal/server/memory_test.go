package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/server/bufpool"
	"adapt/internal/server/wire"
)

// mappingsOfSize counts the read-write private mappings of exactly n
// bytes in /proc/self/maps; ok is false where the file does not exist.
func mappingsOfSize(t *testing.T, n int) (count int, ok bool) {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		lo, hi, found := strings.Cut(fields[0], "-")
		if !found || fields[1] != "rw-p" {
			continue
		}
		a, err1 := strconv.ParseUint(lo, 16, 64)
		b, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 == nil && err2 == nil && b-a == uint64(n) {
			count++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return count, true
}

// TestShutdownRacesPlaneRelease drives a reader and a writer through
// the backend API, each op under an Acquired slot as a frontend holds
// one, while Shutdown closes the byte store under them — unmaps a RAM
// server's planes, closes a data-dir server's files: every op either
// succeeds or fails with ErrShuttingDown — none touches unmapped memory
// or a closed file — and once Shutdown returns every op, admitted or
// not, is refused. A RAM server maps one plane per volume until then; a
// data-dir server keeps the bytes in vol-N.dat alone and maps none.
func TestShutdownRacesPlaneRelease(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dataDir bool
	}{{"ram", false}, {"data-dir", true}} {
		t.Run(tc.name, func(t *testing.T) { shutdownRacesStore(t, tc.dataDir) })
	}
}

func shutdownRacesStore(t *testing.T, dataDir bool) {
	// 47 pages per volume: a plane size nothing else in the process maps.
	const volumes, volBlocks = 2, 3008
	planeBytes := volBlocks * testBlockBytes
	eng := testEngine(t, volumes*volBlocks, false, false)
	defer eng.Close()
	cfg := Config{Engine: eng, Volumes: volumes}
	wantPlanes := volumes
	if dataDir {
		cfg.DataDir = t.TempDir()
		wantPlanes = 0
	}
	before, haveMaps := mappingsOfSize(t, planeBytes)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := srv.planeBytes.Load(), int64(wantPlanes*planeBytes); got != want {
		t.Fatalf("plane gauge %d bytes, want %d", got, want)
	}
	if n, _ := mappingsOfSize(t, planeBytes); haveMaps && n != before+wantPlanes {
		t.Fatalf("%d mappings of a plane's size while serving, want %d", n, before+wantPlanes)
	}

	// Each loop runs until its first refusal and reports on its channel
	// once after its first served op; Shutdown starts only after both
	// have, so neither side of the race can be empty.
	var wg sync.WaitGroup
	var served [2]int
	first := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	loop := func(i int, op func(lba int64) error) {
		defer wg.Done()
		for lba := int64(0); ; lba = (lba + 1) % volBlocks {
			err := srv.Acquire(0)
			if err == nil {
				err = op(lba)
				srv.Release(0)
			}
			switch {
			case err == nil:
				if served[i]++; served[i] == 1 {
					close(first[i])
				}
			case errors.Is(err, ErrShuttingDown):
				if served[i] == 0 {
					close(first[i])
				}
				return
			default:
				t.Errorf("op racing Shutdown: %v, want nil or ErrShuttingDown", err)
				if served[i] == 0 {
					close(first[i])
				}
				return
			}
		}
	}
	acked := make(chan error, 1)
	wg.Add(2)
	go loop(0, func(lba int64) error {
		buf, err := srv.ReadBlocks(0, lba, 1, nil)
		bufpool.Put(buf)
		return err
	})
	go loop(1, func(lba int64) error {
		srv.WriteBlocks(0, lba, pattern(0, lba, 1), nil, func(err error) { acked <- err })
		return <-acked
	})
	<-first[0]
	<-first[1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("race not exercised: %d reads and %d writes served before Shutdown", served[0], served[1])
	}

	if _, err := srv.ReadBlocks(0, 1, 1, nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("read after Shutdown: %v, want ErrShuttingDown", err)
	}
	srv.WriteBlocks(0, 1, pattern(0, 1, 2), nil, func(err error) { acked <- err })
	if err := <-acked; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("write after Shutdown: %v, want ErrShuttingDown", err)
	}
	if err := srv.Flush(0, nil); err != nil && !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("flush after Shutdown: %v, want nil or ErrShuttingDown", err)
	}
	if got := srv.planeBytes.Load(); got != 0 {
		t.Fatalf("plane gauge %d bytes after Shutdown, want 0", got)
	}
	if n, _ := mappingsOfSize(t, planeBytes); haveMaps && n != before {
		t.Fatalf("%d mappings of a plane's size after Shutdown, want %d", n, before)
	}
}

// allocBytesPerOp returns the heap bytes the whole process allocates
// per call of op, over n calls.
func allocBytesPerOp(n int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// pipeConn is the server's end of a net.Pipe without deadlines: a
// pipe allocates a timer per deadline set, where a TCP socket does not.
type pipeConn struct{ net.Conn }

func (pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (pipeConn) SetWriteDeadline(time.Time) error { return nil }

// TestWireBytesPerOp pins the wire path's steady-state garbage: a 4 KiB
// read or write driven over a pipe from pre-encoded frames — no client
// allocating alongside — leaves at most 1 KiB of heap behind. Each
// payload-sized buffer on the way (request frame, reply frame) comes
// from bufpool and goes back to it.
func TestWireBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	const (
		blockBytes = 4096
		userBlocks = 1024
		ops        = 2000
	)
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{Store: lss.Config{
			BlockSize: blockBytes, ChunkBlocks: 16, SegmentChunks: 16,
			UserBlocks: userBlocks, OverProvision: 0.25,
		}},
		Shards:        1,
		PolicyFactory: sepGCFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cli, conn := net.Pipe()
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		srv.handleConn(pipeConn{conn})
	}()
	defer func() {
		cli.Close()
		<-connDone
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	payload := make([]byte, blockBytes)
	for i := range payload {
		payload[i] = byte(i) | 1
	}
	for _, tc := range []struct {
		name    string
		op      wire.Op
		payload []byte
		respLen int
	}{
		{"write", wire.OpWrite, payload, wire.ResponseFrameLen(0)},
		{"read", wire.OpRead, nil, wire.ResponseFrameLen(blockBytes)},
	} {
		frames := make([][]byte, userBlocks)
		for lba := range frames {
			frames[lba] = wire.AppendRequest(nil, &wire.Request{
				Op: tc.op, ID: uint64(lba), LBA: uint64(lba), Count: 1, Payload: tc.payload,
			})
		}
		resp := make([]byte, tc.respLen)
		i := 0
		roundtrip := func() {
			if _, err := cli.Write(frames[i%userBlocks]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(cli, resp); err != nil {
				t.Fatal(err)
			}
			i++
		}
		allocBytesPerOp(userBlocks, roundtrip) // warm the pools and the plane
		got := allocBytesPerOp(ops, roundtrip)
		r, err := wire.DecodeResponse(resp[4:])
		if err != nil || r.Status != wire.StatusOK {
			t.Fatalf("%s: last response %+v, %v", tc.name, r, err)
		}
		if tc.op == wire.OpRead && string(r.Payload) != string(payload) {
			t.Fatalf("read: payload differs from what was written")
		}
		t.Logf("%s: %.0f B/op", tc.name, got)
		if got > 1024 {
			t.Errorf("%s: %.0f heap bytes per 4 KiB op, want <= 1024", tc.name, got)
		}
	}
}
