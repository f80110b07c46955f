package nbd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"
)

// pipeConn is the server's end of a net.Pipe without deadlines: a
// pipe allocates a timer per deadline set, where a TCP socket does not.
type pipeConn struct{ net.Conn }

func (pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (pipeConn) SetWriteDeadline(time.Time) error { return nil }

// transmitPipe runs st's transmission phase for vol0 over a pipe and
// returns the client end: the server side alone, no handshake, no
// client library allocating alongside.
func transmitPipe(t *testing.T, st *stack) net.Conn {
	cli, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.nbd.transmit(pipeConn{conn}, bufio.NewReaderSize(conn, 64<<10), 0)
	}()
	t.Cleanup(func() {
		cli.Close()
		<-done
	})
	return cli
}

// appendRequest encodes one transmission request.
func appendRequest(b []byte, cmd uint16, handle, off uint64, length uint32, payload []byte) []byte {
	b = appendU32(b, requestMagic)
	b = appendU16(b, 0)
	b = appendU16(b, cmd)
	b = appendU64(b, handle)
	b = appendU64(b, off)
	b = appendU32(b, length)
	return append(b, payload...)
}

// roundtrip sends one pre-encoded request and reads its reply into
// reply, failing t on a transport error or a nonzero errno.
func roundtrip(t testing.TB, c net.Conn, req, reply []byte) {
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, reply); err != nil {
		t.Fatal(err)
	}
	if errno := binary.BigEndian.Uint32(reply[4:8]); errno != 0 {
		t.Fatalf("errno %d", errno)
	}
}

// allocBytes returns the heap bytes the whole process allocates per
// call of op, over n calls.
func allocBytes(n int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestNBDBytesPerOp pins the NBD path's steady-state garbage: an
// aligned 4 KiB READ or WRITE leaves at most 1 KiB of heap behind. The
// write payload, the widened read and the reply frame each come from
// bufpool and go back to it.
func TestNBDBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	const (
		blockBytes = 4096
		userBlocks = 1024
		ops        = 2000
	)
	st := newStack(t, stackConfig{userBlocks: userBlocks, blockBytes: blockBytes, volumes: 1, batch: true})
	c := transmitPipe(t, st)
	payload := bytes.Repeat([]byte{0x5a}, blockBytes)
	for _, tc := range []struct {
		name     string
		cmd      uint16
		payload  []byte
		replyLen int
	}{
		{"write", cmdWrite, payload, 16},
		{"read", cmdRead, nil, 16 + blockBytes},
	} {
		reqs := make([][]byte, userBlocks)
		for lba := range reqs {
			reqs[lba] = appendRequest(nil, tc.cmd, uint64(lba), uint64(lba*blockBytes), blockBytes, tc.payload)
		}
		reply := make([]byte, tc.replyLen)
		i := 0
		op := func() {
			roundtrip(t, c, reqs[i%userBlocks], reply)
			i++
		}
		allocBytes(userBlocks, op) // warm the pools and the plane
		got := allocBytes(ops, op)
		if tc.cmd == cmdRead && !bytes.Equal(reply[16:], payload) {
			t.Fatal("read: data differs from what was written")
		}
		t.Logf("%s: %.0f B/op", tc.name, got)
		if got > 1024 {
			t.Errorf("%s: %.0f heap bytes per aligned 4 KiB op, want <= 1024", tc.name, got)
		}
	}
}

// TestNBDWriteZeroesShared pins WRITE_ZEROES to the shared zero source:
// once it exists, a maximum-size request allocates next to nothing
// rather than a fresh request-sized buffer of zeroes, and the range
// still reads back as zeroes.
func TestNBDWriteZeroesShared(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	const blockBytes = 4096
	size := DefaultMaxRequestBytes
	// Eight volumes so that every full-size write to vol0 fits the log
	// without an engine GC cycle. The engine's victim index still grows
	// as overwrites invalidate fresh segments, amortized: the best of
	// three requests is the frontend's own cost.
	st := newStack(t, stackConfig{userBlocks: 8 * int64(size/blockBytes), blockBytes: blockBytes, volumes: 8, batch: true})
	c := transmitPipe(t, st)
	ack := make([]byte, 16)
	zero := appendRequest(nil, cmdWriteZeroes, 1, 0, uint32(size), nil)
	fill := appendRequest(nil, cmdWrite, 2, 0, uint32(size), bytes.Repeat([]byte{0xff}, size))
	roundtrip(t, c, zero, ack) // allocates the zero source
	best := math.Inf(1)
	for range 3 {
		roundtrip(t, c, fill, ack)
		best = min(best, allocBytes(1, func() { roundtrip(t, c, zero, ack) }))
	}
	t.Logf("max-size WRITE_ZEROES: %.0f B", best)
	if best >= 4096 {
		t.Errorf("max-size WRITE_ZEROES allocated %.0f bytes, want < 4096", best)
	}
	reply := make([]byte, 16+size)
	roundtrip(t, c, appendRequest(nil, cmdRead, 3, 0, uint32(size), nil), reply)
	if !bytes.Equal(reply[16:], make([]byte, size)) {
		t.Fatal("WRITE_ZEROES range does not read back as zeroes")
	}
}
