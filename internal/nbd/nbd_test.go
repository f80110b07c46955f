package nbd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/nbd/nbdtest"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/server"
)

// testBlockBytes keeps the volume data planes tiny while leaving room
// for ragged-edge merges on both sides of a block.
const testBlockBytes = 64

// stackConfig shapes one test stack.
type stackConfig struct {
	userBlocks int64
	blockBytes int // 0: testBlockBytes
	volumes    int
	shards     int // 0: one shard
	trace      bool
	mirror     bool // oracle + RAID mirror: enables FailColumn/RebuildStep
	// listen, when set, wraps the loopback listener the frontend serves.
	listen func(net.Listener) net.Listener
}

// stack is a full serving stack: engine → volume manager → NBD
// frontend on a loopback listener.
type stack struct {
	eng  *prototype.Sharded
	srv  *server.Server
	nbd  *Server
	addr string
}

// testEngine builds an engine over the tiny test geometry; mirror
// attaches the oracle + RAID mirror (enables FailColumn/RebuildStep).
func testEngine(userBlocks int64, blockBytes, shards int, mirror bool) (*prototype.Sharded, error) {
	return prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store: lss.Config{
				BlockSize:     blockBytes,
				ChunkBlocks:   8,
				SegmentChunks: 4,
				UserBlocks:    userBlocks,
				OverProvision: 0.25,
			},
			Verify:       mirror,
			VerifyMirror: mirror,
		},
		Shards: shards,
		PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
			return placement.NewSepGC(placement.Params{UserBlocks: scfg.UserBlocks}), nil
		},
	})
}

func newStack(t testing.TB, sc stackConfig) *stack {
	t.Helper()
	if sc.blockBytes == 0 {
		sc.blockBytes = testBlockBytes
	}
	eng, err := testEngine(sc.userBlocks, sc.blockBytes, max(sc.shards, 1), sc.mirror)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine:  eng,
		Volumes: sc.volumes,
		Trace:   server.TraceConfig{Enabled: sc.trace},
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	nsrv, err := New(Config{Backend: srv})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	served := make(chan error, 1)
	if sc.listen != nil {
		ln = sc.listen(ln)
	}
	go func() { served <- nsrv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := nsrv.Shutdown(ctx); err != nil {
			t.Errorf("nbd shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("nbd serve: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		if err := eng.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return &stack{eng: eng, srv: srv, nbd: nsrv, addr: ln.Addr().String()}
}

func dialExport(t testing.TB, addr, export string) *nbdtest.Client {
	t.Helper()
	c, err := nbdtest.Dial(addr, export)
	if err != nil {
		t.Fatalf("dial %q: %v", export, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNBDListGoInfo(t *testing.T) {
	st := newStack(t, stackConfig{userBlocks: 4096, volumes: 3})

	names, err := nbdtest.List(st.addr)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	want := []string{"vol0", "vol1", "vol2"}
	if len(names) != len(want) {
		t.Fatalf("exports %v, want %v", names, want)
	}
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("exports %v, want %v", names, want)
		}
	}

	c := dialExport(t, st.addr, "vol1")
	info := c.Info()
	wantSize := uint64(st.srv.VolumeBlocks()) * testBlockBytes
	if info.Size != wantSize {
		t.Fatalf("export size %d, want %d", info.Size, wantSize)
	}
	if info.MinBlock != 1 || info.PreferredBlock != testBlockBytes {
		t.Fatalf("block sizes min=%d preferred=%d, want 1/%d", info.MinBlock, info.PreferredBlock, testBlockBytes)
	}
	for _, fl := range []uint16{nbdtest.TFlagHasFlags, nbdtest.TFlagSendFlush, nbdtest.TFlagSendFUA,
		nbdtest.TFlagSendTrim, nbdtest.TFlagSendWriteZeroes, nbdtest.TFlagCanMultiConn} {
		if info.Flags&fl == 0 {
			t.Fatalf("transmission flags %#x missing %#x", info.Flags, fl)
		}
	}
	if info.Flags&nbdtest.TFlagReadOnly != 0 {
		t.Fatalf("export unexpectedly read-only (flags %#x)", info.Flags)
	}

	// The default (empty) export is vol0.
	d := dialExport(t, st.addr, "")
	if d.Info().Size != wantSize {
		t.Fatalf("default export size %d, want %d", d.Info().Size, wantSize)
	}

	// Unknown exports are refused without killing the listener.
	if _, err := nbdtest.Dial(st.addr, "no-such-export"); err == nil {
		t.Fatal("GO for unknown export succeeded")
	}
}

// TestNBDMixedWorkloadReadback drives one export with a seeded mix of
// aligned and unaligned writes, write-zeroes, trims, flushes, and
// reads, mirroring every mutation into a flat shadow buffer, then
// verifies the device byte-for-byte.
func TestNBDMixedWorkloadReadback(t *testing.T) {
	st := newStack(t, stackConfig{userBlocks: 4096, volumes: 2})
	c := dialExport(t, st.addr, "vol1")
	size := c.Info().Size
	shadow := make([]byte, size)
	rng := rand.New(rand.NewSource(42))

	randSpan := func() (uint64, uint32) {
		off := uint64(rng.Int63n(int64(size)))
		maxLen := size - off
		if maxLen > 4*testBlockBytes {
			maxLen = 4 * testBlockBytes
		}
		return off, uint32(1 + rng.Int63n(int64(maxLen)))
	}
	for i := 0; i < 2000; i++ {
		off, n := randSpan()
		switch op := rng.Intn(10); {
		case op < 5: // write, mostly unaligned
			data := make([]byte, n)
			rng.Read(data)
			var flags uint16
			if rng.Intn(4) == 0 {
				flags = nbdtest.FlagFUA
			}
			if err := c.Write(off, data, flags); err != nil {
				t.Fatalf("op %d: write(%d,%d): %v", i, off, n, err)
			}
			copy(shadow[off:], data)
		case op < 6:
			if err := c.WriteZeroes(off, n, 0); err != nil {
				t.Fatalf("op %d: write_zeroes(%d,%d): %v", i, off, n, err)
			}
			for j := uint64(0); j < uint64(n); j++ {
				shadow[off+j] = 0
			}
		case op < 7:
			// Trim is advisory and must not change what reads return
			// (the data plane keeps the bytes); shadow is untouched.
			if err := c.Trim(off, n); err != nil {
				t.Fatalf("op %d: trim(%d,%d): %v", i, off, n, err)
			}
		case op < 8:
			if err := c.Flush(); err != nil {
				t.Fatalf("op %d: flush: %v", i, err)
			}
		default:
			got, err := c.Read(off, n)
			if err != nil {
				t.Fatalf("op %d: read(%d,%d): %v", i, off, n, err)
			}
			if !bytes.Equal(got, shadow[off:off+uint64(n)]) {
				t.Fatalf("op %d: read(%d,%d) diverged from shadow", i, off, n)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < size; off += 8 * testBlockBytes {
		n := uint32(8 * testBlockBytes)
		if size-off < uint64(n) {
			n = uint32(size - off)
		}
		got, err := c.Read(off, n)
		if err != nil {
			t.Fatalf("readback at %d: %v", off, err)
		}
		if !bytes.Equal(got, shadow[off:off+uint64(n)]) {
			t.Fatalf("readback at %d diverged from shadow", off)
		}
	}
}

// TestNBDMultiConn checks NBD_FLAG_CAN_MULTI_CONN semantics: writes
// acked on one connection are visible (and, after one connection's
// flush, durable) on another.
func TestNBDMultiConn(t *testing.T) {
	poisonReleases(t)
	st := newStack(t, stackConfig{userBlocks: 4096, volumes: 1, shards: 2})
	a := dialExport(t, st.addr, "vol0")
	b := dialExport(t, st.addr, "vol0")

	var wg sync.WaitGroup
	for w, c := range []*nbdtest.Client{a, b} {
		wg.Add(1)
		go func(w int, c *nbdtest.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w) * 1024 * testBlockBytes
			for i := 0; i < 200; i++ {
				off := base + uint64(rng.Intn(1000*testBlockBytes))
				data := make([]byte, 1+rng.Intn(3*testBlockBytes))
				for j := range data {
					data[j] = byte(w + 1)
				}
				if err := c.Write(off, data, 0); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Deterministic cross-connection visibility: write on a, read on b.
	pat := bytes.Repeat([]byte{0xab}, 3*testBlockBytes/2)
	if err := a.Write(7, pat, 0); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(7, uint32(len(pat)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatal("write on conn A not visible on conn B")
	}
}

// TestNBDFailColumnRebuild keeps a mixed workload running while a RAID
// column fails mid-traffic and is rebuilt, then verifies readback.
func TestNBDFailColumnRebuild(t *testing.T) {
	st := newStack(t, stackConfig{userBlocks: 8192, volumes: 2, shards: 2, mirror: true})
	const workers = 4
	var mu sync.Mutex // guards shadows
	shadows := [2][]byte{}
	var size uint64
	{
		c := dialExport(t, st.addr, "vol0")
		size = c.Info().Size
	}
	shadows[0] = make([]byte, size)
	shadows[1] = make([]byte, size)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vol := w % 2
			c, err := nbdtest.Dial(st.addr, ExportName(vol))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := uint64(rng.Int63n(int64(size)))
				n := uint32(1 + rng.Int63n(2*testBlockBytes))
				if uint64(n) > size-off {
					n = uint32(size - off)
				}
				data := make([]byte, n)
				rng.Read(data)
				// The shadow must record exactly what the device acked,
				// so the lock spans ack and mirror update (writers to
				// the same volume serialize; that loses interleaving,
				// not coverage).
				mu.Lock()
				err := c.Write(off, data, 0)
				if err == nil {
					copy(shadows[vol][off:], data)
				}
				mu.Unlock()
				if err != nil {
					errCh <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				if i%16 == 0 {
					if _, err := c.Read(off, n); err != nil {
						errCh <- fmt.Errorf("worker %d read: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond)
	if err := st.eng.FailColumn(1); err != nil {
		t.Fatalf("fail column: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	for {
		_, done, err := st.eng.RebuildStep(64)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			break
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st.eng.Degraded() {
		t.Fatal("engine still degraded after full rebuild")
	}

	for vol := 0; vol < 2; vol++ {
		c := dialExport(t, st.addr, ExportName(vol))
		for off := uint64(0); off < size; off += 16 * testBlockBytes {
			n := uint32(16 * testBlockBytes)
			if size-off < uint64(n) {
				n = uint32(size - off)
			}
			got, err := c.Read(off, n)
			if err != nil {
				t.Fatalf("vol %d readback at %d: %v", vol, off, err)
			}
			if !bytes.Equal(got, shadows[vol][off:off+uint64(n)]) {
				t.Fatalf("vol %d readback at %d diverged after fail+rebuild", vol, off)
			}
		}
	}
}

// TestNBDShutdownDrains checks that Shutdown completes in-flight
// requests and later requests fail cleanly with ESHUTDOWN semantics
// (the connection closes or errors, but never hangs).
func TestNBDShutdownDrains(t *testing.T) {
	st := newStack(t, stackConfig{userBlocks: 4096, volumes: 1})
	c := dialExport(t, st.addr, "vol0")
	data := bytes.Repeat([]byte{9}, testBlockBytes)
	if err := c.Write(0, data, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.nbd.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := c.Write(testBlockBytes, data, 0); err == nil {
		t.Fatal("write after shutdown succeeded")
	}
	// New connections are refused.
	if _, err := nbdtest.Dial(st.addr, "vol0"); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

// deadlineConn records, in order, what the server does to a
// connection's read side: every read deadline it sets and every Read.
type deadlineConn struct {
	net.Conn
	mu     sync.Mutex
	events []string
}

func (c *deadlineConn) record(ev string) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.record("read")
	return c.Conn.Read(p)
}

func (c *deadlineConn) SetReadDeadline(d time.Time) error {
	switch {
	case d.IsZero():
		c.record("clear")
	case time.Until(d) > time.Minute:
		c.record("arm")
	default:
		c.record("expire")
	}
	return c.Conn.SetReadDeadline(d)
}

type deadlineListener struct {
	net.Listener
	conns chan *deadlineConn
}

func (l deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	dc := &deadlineConn{Conn: c}
	l.conns <- dc
	return dc, nil
}

// TestNBDHandshakeDeadline pins the negotiation phase to the shared
// idle deadline: it is armed before the server reads a byte of the
// handshake — so a peer that connects and sends nothing is reaped like
// a silent wire client instead of pinning a goroutine, a descriptor and
// an nbd_conns slot for the life of the process — and cleared on
// entering transmission, where a kernel initiator may idle for hours.
func TestNBDHandshakeDeadline(t *testing.T) {
	conns := make(chan *deadlineConn, 1)
	st := newStack(t, stackConfig{userBlocks: 4096, volumes: 1,
		listen: func(ln net.Listener) net.Listener { return deadlineListener{ln, conns} }})
	c := dialExport(t, st.addr, "vol0") // negotiates with NBD_OPT_GO
	// A served request proves the server is in transmission.
	if err := c.Write(0, bytes.Repeat([]byte{5}, testBlockBytes), 0); err != nil {
		t.Fatal(err)
	}
	dc := <-conns
	dc.mu.Lock()
	events := append([]string(nil), dc.events...)
	dc.mu.Unlock()

	if len(events) == 0 || events[0] != "arm" {
		t.Fatalf("handshake read the peer before arming a read deadline: %v", events)
	}
	cleared := -1
	for i, ev := range events {
		if ev == "clear" {
			cleared = i
		}
	}
	if cleared < 2 || events[cleared-1] != "read" {
		t.Fatalf("no deadline clear after the negotiation's reads: %v", events)
	}
	for _, ev := range events[cleared:] {
		if ev == "arm" {
			t.Fatalf("idle deadline re-armed in transmission: %v", events)
		}
	}
	if len(events) == cleared+1 {
		t.Fatalf("transmission read nothing after the clear: %v", events)
	}
}

// TestNBDRequestValidation exercises the transmission-phase error
// paths a hostile or buggy client can reach without killing the
// session.
func TestNBDRequestValidation(t *testing.T) {
	st := newStack(t, stackConfig{userBlocks: 4096, volumes: 1})
	c := dialExport(t, st.addr, "vol0")
	size := c.Info().Size

	if _, err := c.Read(size, 1); !errors.As(err, new(nbdtest.Errno)) {
		t.Fatalf("read past end: %v", err)
	}
	if err := c.Write(size-1, []byte{1, 2}, 0); !errors.As(err, new(nbdtest.Errno)) {
		t.Fatalf("write past end: %v", err)
	}
	if _, err := c.Read(0, 0); !errors.As(err, new(nbdtest.Errno)) {
		t.Fatalf("zero-length read: %v", err)
	}
	if err := c.WriteZeroes(0, uint32(DefaultMaxRequestBytes)+1, 0); !errors.As(err, new(nbdtest.Errno)) {
		t.Fatalf("oversized write_zeroes: %v", err)
	}
	// The session survives all of the above.
	if err := c.Write(0, []byte{1}, 0); err != nil {
		t.Fatalf("session did not survive error replies: %v", err)
	}
}
