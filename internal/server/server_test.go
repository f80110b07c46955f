package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/fault"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/server/wire"
)

// testBlockBytes keeps the volume data planes and the verification
// mirror tiny; the mirror needs BlockSize >= 17.
const testBlockBytes = 64

// testStoreConfig is the tiny geometry every test stack shares.
func testStoreConfig(userBlocks int64) lss.Config {
	return lss.Config{
		BlockSize:     testBlockBytes,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    userBlocks,
		OverProvision: 0.25,
	}
}

// sepGCFactory is the per-shard policy every test engine runs.
func sepGCFactory(_ int, scfg lss.Config) (lss.Policy, error) {
	return placement.NewSepGC(placement.Params{UserBlocks: scfg.UserBlocks}), nil
}

// testEngine builds the smallest engine: one shard.
func testEngine(t *testing.T, userBlocks int64, verify, mirror bool) *prototype.Sharded {
	t.Helper()
	return testShardedEngine(t, userBlocks, 1, verify, mirror)
}

// testShardedEngine builds a verification engine of the given shard
// count over the shared tiny geometry.
func testShardedEngine(t *testing.T, userBlocks int64, shards int, verify, mirror bool) *prototype.Sharded {
	t.Helper()
	e, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:        testStoreConfig(userBlocks),
			ServiceTime:  time.Microsecond,
			Verify:       verify,
			VerifyMirror: mirror,
		},
		Shards:        shards,
		PolicyFactory: sepGCFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// serve starts srv on a loopback listener and returns its address plus
// a stop function that shuts the server down and waits for Serve.
func serve(t *testing.T, srv *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

func dial(t *testing.T, addr string, volume uint32) *Client {
	t.Helper()
	c, err := Dial(addr, volume)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBlockBytes(testBlockBytes)
	t.Cleanup(func() { c.Close() })
	return c
}

// pattern fills one block deterministically from (volume, lba, version)
// so read-back verification needs no shared state.
func pattern(volume uint32, lba int64, version byte) []byte {
	b := make([]byte, testBlockBytes)
	for i := range b {
		b[i] = byte(int64(volume)*31+lba*7+int64(version)*13+int64(i)) | 1
	}
	return b
}

func TestServerBasicOps(t *testing.T) {
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	defer stop()
	c := dial(t, addr, 2)

	want := pattern(2, 17, 1)
	if err := c.Write(17, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.Read(17, 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read-back mismatch:\n got %x\nwant %x", got, want)
	}
	if err := c.Write(17, pattern(2, 17, 2)); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := c.Trim(17, 1); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats["geom_volumes"] != 4 || stats["geom_block_bytes"] != testBlockBytes {
		t.Fatalf("bad geometry in stats: %v", stats)
	}
	if stats["vol2_writes"] != 2 || stats["vol2_reads"] != 1 || stats["vol2_trims"] != 1 {
		t.Fatalf("bad vol2 counters: %v", stats)
	}

	// Status mapping: one raw request per typed sentinel the validated
	// ops return, so the wire status each maps to is pinned.
	bad := dial(t, addr, 99)
	volBlocks := uint64(srv.VolumeBlocks())
	for _, tc := range []struct {
		name     string
		c        *Client
		req      wire.Request
		status   wire.Status
		sentinel error
	}{
		{"unknown volume", bad, wire.Request{Op: wire.OpWrite, Count: 1, Payload: want}, wire.StatusBadVolume, ErrBadVolume},
		{"unknown volume flush", bad, wire.Request{Op: wire.OpFlush}, wire.StatusBadVolume, ErrBadVolume},
		{"read past end", c, wire.Request{Op: wire.OpRead, LBA: 1 << 40, Count: 1}, wire.StatusOutOfRange, ErrOutOfRange},
		{"write straddles end", c, wire.Request{Op: wire.OpWrite, LBA: volBlocks - 1, Count: 2, Payload: append(want, want...)}, wire.StatusOutOfRange, ErrOutOfRange},
		{"trim at end", c, wire.Request{Op: wire.OpTrim, LBA: volBlocks, Count: 1}, wire.StatusOutOfRange, ErrOutOfRange},
		{"read lba 2^63", c, wire.Request{Op: wire.OpRead, LBA: 1 << 63, Count: 1}, wire.StatusOutOfRange, ErrOutOfRange},
		{"write lba 2^64-1", c, wire.Request{Op: wire.OpWrite, LBA: ^uint64(0), Count: 1, Payload: want}, wire.StatusOutOfRange, ErrOutOfRange},
		{"zero-count read", c, wire.Request{Op: wire.OpRead}, wire.StatusBadRequest, ErrBadRequest},
		{"zero-count write", c, wire.Request{Op: wire.OpWrite}, wire.StatusBadRequest, ErrBadRequest},
		{"zero-count trim", c, wire.Request{Op: wire.OpTrim}, wire.StatusBadRequest, ErrBadRequest},
		{"short payload", c, wire.Request{Op: wire.OpWrite, Count: 1, Payload: want[:testBlockBytes/2]}, wire.StatusBadRequest, ErrBadRequest},
		{"count over payload", c, wire.Request{Op: wire.OpWrite, Count: 2, Payload: want}, wire.StatusBadRequest, ErrBadRequest},
	} {
		resp, err := tc.c.roundtrip(&tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Status != tc.status || !errors.Is(statusError(resp), tc.sentinel) {
			t.Errorf("%s: status %v (%v), want %v", tc.name, resp.Status, statusError(resp), tc.status)
		}
	}
	// The session survives every refusal, and each freed its slot.
	if err := c.Write(0, want); err != nil {
		t.Fatalf("write after refusals: %v", err)
	}
	if n := len(srv.vols[2].sem); n != 0 {
		t.Fatalf("%d admission slots still held after refusals", n)
	}
}

// TestReservedFlagBitServed: bit 0 of the request flags once selected a
// second, unbatched write path. It is reserved now, so a client that
// still sets it is served like any other — acked from a group commit
// and read back byte-exact — not refused.
func TestReservedFlagBitServed(t *testing.T) {
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	defer stop()
	c := dial(t, addr, 0)

	want := append(pattern(0, 5, 1), pattern(0, 6, 1)...)
	resp, err := c.roundtrip(&wire.Request{Op: wire.OpWrite, Flags: 1 << 0, LBA: 5, Count: 2, Payload: want})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("write with bit 0 set: %v, %v", err, statusError(resp))
	}
	got, err := c.Read(5, 2)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read-back after a bit-0 write: %v\n got %x\nwant %x", err, got, want)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["srv_batches"] != 1 || stats["srv_batched_writes"] != 1 {
		t.Fatalf("the write did not go through group commit: %v", stats)
	}
}

func TestServerBackpressure(t *testing.T) {
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	defer stop()
	c := dial(t, addr, 0)

	// Occupy the volume's only inflight slot, as a stalled op would.
	if !srv.vols[0].admit() {
		t.Fatal("slot should be free")
	}
	if err := c.Write(1, pattern(0, 1, 1)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("write with full semaphore: got %v, want ErrBackpressure", err)
	}
	srv.vols[0].release()
	if err := c.Write(1, pattern(0, 1, 2)); err != nil {
		t.Fatalf("write after release: %v", err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["srv_backpressure"] != 1 || stats["vol0_rejected"] != 1 {
		t.Fatalf("backpressure not counted: %v", stats)
	}
}

// TestServerShutdownAcksPending verifies graceful drain: every write
// in flight when Shutdown starts is committed and acked (zero lost
// acks), and late requests get a clean refusal instead of a hang.
func TestServerShutdownAcksPending(t *testing.T) {
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	c := dial(t, addr, 0)

	const parked = 4
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Write(int64(i), pattern(0, int64(i), 1))
		}(i)
	}
	// Wait until all four occupy the batcher, then drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats["vol0_writes"] == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never reached the batcher")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("parked write %d lost its ack: %v", i, err)
		}
	}
	st := eng.Stats()
	if st.UserBlocks != parked {
		t.Fatalf("store saw %d blocks, want %d", st.UserBlocks, parked)
	}
	// A late client sees a clean refusal, not a hang.
	if err := c.Write(9, pattern(0, 9, 2)); err == nil {
		t.Fatal("write after shutdown should fail")
	}
}

// rearmConn forces the one bad interleaving of Shutdown against a
// connection reader: the reader's idle-deadline arm is held until
// Shutdown has expired the deadline, then applied on top of it.
type rearmConn struct {
	net.Conn
	armed, expired      chan struct{} // closed at the reader's first idle arm / at Shutdown's expiry
	armOnce, expireOnce sync.Once
}

func (c *rearmConn) SetReadDeadline(d time.Time) error {
	if time.Until(d) > time.Minute { // the reader's idle arm
		c.armOnce.Do(func() {
			close(c.armed)
			<-c.expired
		})
	} else { // an expiry: Shutdown's first, the reader's own after it
		c.expireOnce.Do(func() { close(c.expired) })
	}
	return c.Conn.SetReadDeadline(d)
}

type rearmListener struct {
	net.Listener
	conns chan *rearmConn
}

func (l rearmListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &rearmConn{Conn: c, armed: make(chan struct{}), expired: make(chan struct{})}
	l.conns <- rc
	return rc, nil
}

// TestServerShutdownBeatsIdleRearm pins the drain against the reader's
// idle-deadline arm: Shutdown expiring a connection's read deadline in
// the instant before its reader re-arms it must still drain, not park
// the reader for the idle timeout while the client holds the
// connection open.
func TestServerShutdownBeatsIdleRearm(t *testing.T) {
	eng := testEngine(t, 4096, false, false)
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Volumes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := rearmListener{Listener: ln, conns: make(chan *rearmConn, 1)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(rl) }()
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close() // stays open: only the deadline can end the read
	<-(<-rl.conns).armed

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown against a re-armed idle deadline: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServerE2EFaultRebuild is the end-to-end satellite: four tenants
// hammer a loopback server concurrently while a fault.Fixed schedule
// fails an array column mid-test and an online rebuild runs to
// completion under traffic. Every request is acked exactly once
// (retried on backpressure), read-backs verify payload bytes against
// per-worker expectations, and engine Close replays the checker
// oracle's full cross-check plus RAID parity and byte read-back.
func TestServerE2EFaultRebuild(t *testing.T) {
	runE2EFaultRebuild(t, testEngine(t, 8192, true, true))
}

// TestServerE2EShardedFaultRebuild runs the same mid-traffic fault and
// online rebuild against a 4-shard engine (the case above has one): the column failure must
// degrade every shard, the rebuild must bring them all back, and the
// per-shard oracles replay their full cross-checks at Close.
func TestServerE2EShardedFaultRebuild(t *testing.T) {
	runE2EFaultRebuild(t, testShardedEngine(t, 8192, 4, true, true))
}

func runE2EFaultRebuild(t *testing.T, eng *prototype.Sharded) {
	poisonReleases(t)
	srv, err := New(Config{
		Engine: eng, Volumes: 4, MaxInflight: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)

	const (
		tenants       = 4
		workersPerTen = 4
		opsPerWorker  = 300
	)
	var (
		opCount  atomic.Int64 // global acked-write counter, drives the fault plan
		acks     atomic.Int64
		verified atomic.Int64
	)
	plan := fault.Fixed(1, tenants*workersPerTen*opsPerWorker/2)

	// Fault injector: polls the op counter, fires the planned failure,
	// then rebuilds online while traffic continues. It gives up once
	// the workers are done: a failed worker stops counting early.
	faultDone, workersDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(faultDone)
		for {
			ev, ok := plan.Next()
			if !ok {
				return
			}
			if _, fired := plan.Fire(opCount.Load()); !fired {
				select {
				case <-workersDone:
					return
				case <-time.After(time.Millisecond):
				}
				continue
			}
			if err := eng.FailColumn(ev.Device); err != nil {
				t.Errorf("fail column: %v", err)
				return
			}
			if !eng.Degraded() {
				t.Error("engine not degraded after FailColumn")
			}
			for {
				_, done, err := eng.RebuildStep(32)
				if err != nil {
					t.Errorf("rebuild: %v", err)
					return
				}
				if done {
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for ten := 0; ten < tenants; ten++ {
		c := dial(t, addr, uint32(ten))
		span := srv.VolumeBlocks() / workersPerTen
		for w := 0; w < workersPerTen; w++ {
			wg.Add(1)
			go func(ten uint32, c *Client, base, span int64) {
				defer wg.Done()
				// written tracks this worker's own lba range; workers
				// never overlap, so acked writes must read back exactly.
				written := make(map[int64]byte)
				bo := fault.Backoff{}
				for i := 0; i < opsPerWorker; i++ {
					lba := base + int64(i*13)%span
					ver := byte(i)
					for attempt := 0; ; attempt++ {
						err := c.Write(lba, pattern(ten, lba, ver))
						if err == nil {
							break
						}
						if errors.Is(err, ErrBackpressure) {
							time.Sleep(bo.Delay(attempt))
							continue
						}
						t.Errorf("tenant %d write: %v", ten, err)
						return
					}
					written[lba] = ver
					opCount.Add(1)
					acks.Add(1)
					if i%5 == 0 {
						got, err := c.Read(lba, 1)
						if err != nil {
							t.Errorf("tenant %d read: %v", ten, err)
							return
						}
						if !bytes.Equal(got, pattern(ten, lba, written[lba])) {
							t.Errorf("tenant %d lba %d: read-back mismatch", ten, lba)
							return
						}
						verified.Add(1)
					}
					if i%97 == 42 {
						if err := c.Flush(); err != nil {
							t.Errorf("tenant %d flush: %v", ten, err)
							return
						}
					}
					if i%61 == 13 {
						drop := base + int64((i*7)%int(span))
						if err := c.Trim(drop, 1); err != nil {
							t.Errorf("tenant %d trim: %v", ten, err)
							return
						}
						delete(written, drop)
					}
				}
				// Final sweep: everything this worker still owns must
				// read back at its last acked version.
				if err := c.Flush(); err != nil {
					t.Errorf("tenant %d final flush: %v", ten, err)
					return
				}
				for lba, ver := range written {
					got, err := c.Read(lba, 1)
					if err != nil {
						t.Errorf("tenant %d final read: %v", ten, err)
						return
					}
					if !bytes.Equal(got, pattern(ten, lba, ver)) {
						t.Errorf("tenant %d lba %d: final read-back mismatch", ten, lba)
						return
					}
					verified.Add(1)
				}
			}(uint32(ten), c, int64(w)*span, span)
		}
	}
	wg.Wait()
	close(workersDone)
	<-faultDone
	if t.Failed() {
		return
	}

	if eng.Degraded() {
		t.Fatal("rebuild should have completed under traffic")
	}
	want := int64(tenants * workersPerTen * opsPerWorker)
	if acks.Load() != want {
		t.Fatalf("acked %d writes, want %d (lost acks)", acks.Load(), want)
	}
	if verified.Load() == 0 {
		t.Fatal("no read-backs verified")
	}

	// STAT totals must match what the clients observed.
	c := dial(t, addr, 0)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var volWrites int64
	for _, name := range []string{"vol0_writes", "vol1_writes", "vol2_writes", "vol3_writes"} {
		volWrites += stats[name]
	}
	if volWrites < want {
		t.Fatalf("server counted %d writes, clients acked %d", volWrites, want)
	}
	if stats["srv_batches"] == 0 || stats["srv_batched_writes"] == 0 {
		t.Fatalf("batching never engaged: %v", stats)
	}
	if n := eng.Shards(); n > 1 {
		if stats["geom_shards"] != int64(n) {
			t.Fatalf("geom_shards = %d, want %d", stats["geom_shards"], n)
		}
		var shardUser int64
		for i := 0; i < n; i++ {
			shardUser += stats[fmt.Sprintf("shard%d_user_blocks", i)]
		}
		if shardUser != stats["store_user_blocks"] {
			t.Fatalf("per-shard user blocks sum %d != aggregate %d",
				shardUser, stats["store_user_blocks"])
		}
	}

	stop()
	// Close replays the oracle's full cross-check: flat model, RAID
	// parity, and byte-accurate read-back of every durable block.
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close (oracle full check): %v", err)
	}
}

// TestVolumeBlocksZeroValue pins the regression where VolumeBlocks on
// a Server holding no volumes indexed vols[0] and panicked: a
// zero-value (or half-constructed) Server must report 0 instead.
func TestVolumeBlocksZeroValue(t *testing.T) {
	var s Server
	if got := s.VolumeBlocks(); got != 0 {
		t.Fatalf("VolumeBlocks on empty server = %d, want 0", got)
	}
	if got := s.Volumes(); got != 0 {
		t.Fatalf("Volumes on empty server = %d, want 0", got)
	}
}
