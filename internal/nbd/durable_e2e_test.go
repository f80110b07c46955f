package nbd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adapt/internal/nbd/nbdtest"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/server"
)

// The NBD SIGKILL restart test runs the real process lifecycle over
// the NBD wire: the test binary re-executes itself as a server process
// (TestNBDDurableHelper below) serving NBD over a durable stack
// (segfile engine log + file-backed volume data planes), the parent
// writes through the NBD client and records every acked payload —
// including unaligned writes that took the RMW path — kills the server
// with SIGKILL, reboots it on the same data directory, and reads every
// recorded span back. An NBD-acked write that does not survive is a
// durability bug.

const nbdE2EVolumes = 2

// nbdE2EStack boots the stack adaptserve serves behind -nbd-addr: a
// 2-shard durable engine logging to dir/engine/shard-N, volumes in
// dir/volumes.
func nbdE2EStack(dir string) (*server.Server, *Server, *prototype.Sharded, error) {
	eng, err := testEngine(4096, 2, false, &segfile.Options{
		Dir:  filepath.Join(dir, "engine"),
		Sync: segfile.SyncAlways,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.New(server.Config{
		Engine:       eng,
		Volumes:      nbdE2EVolumes,
		DataDir:      filepath.Join(dir, "volumes"),
		Batch:        true,
		BatchTimeout: time.Millisecond,
	})
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	nsrv, err := New(Config{Backend: srv})
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	return srv, nsrv, eng, nil
}

// TestNBDDurableHelper is not a test: it is the server process the
// SIGKILL test re-executes. It boots on ADAPT_NBD_E2E_DIR, announces
// its NBD address on stdout, and serves until the parent kills it.
func TestNBDDurableHelper(t *testing.T) {
	dir := os.Getenv("ADAPT_NBD_E2E_DIR")
	if dir == "" {
		t.Skip("helper process for TestNBDDurableSIGKILLRestart")
	}
	_, nsrv, _, err := nbdE2EStack(dir)
	if err != nil {
		t.Fatalf("helper boot: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("helper listen: %v", err)
	}
	fmt.Fprintf(os.Stdout, "LISTEN %s\n", ln.Addr())
	_ = nsrv.Serve(ln) // runs until SIGKILL
}

func startNBDHelper(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestNBDDurableHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(), "ADAPT_NBD_E2E_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
				addrCh <- a
				break
			}
		}
		close(addrCh)
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("helper exited without announcing an address")
		}
		return cmd, addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("helper did not announce an address in 30s")
	}
	panic("unreachable")
}

// TestNBDDurableSIGKILLRestart writes byte spans over NBD to a live
// server process, SIGKILLs it with no shutdown path, reboots on the
// same data directory, and verifies every acked span reads back
// byte-identical over a fresh NBD connection.
func TestNBDDurableSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()

	cmd, addr := startNBDHelper(t, dir)
	clients := make([]*nbdtest.Client, nbdE2EVolumes)
	for v := range clients {
		c, err := nbdtest.Dial(addr, ExportName(v))
		if err != nil {
			t.Fatalf("dial vol%d: %v", v, err)
		}
		clients[v] = c
	}
	size := clients[0].Info().Size

	// spans[volume] records every acked byte span, latest-wins via
	// replay order. Mix of aligned and unaligned (RMW) writes, some
	// FUA, periodic explicit flushes — every one of them is acked, so
	// every one of them must survive the kill.
	type span struct {
		off  uint64
		data []byte
	}
	spans := make([][]span, nbdE2EVolumes)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		v := rng.Intn(nbdE2EVolumes)
		off := uint64(rng.Int63n(int64(size)))
		maxLen := size - off
		if maxLen > 3*testBlockBytes {
			maxLen = 3 * testBlockBytes
		}
		data := make([]byte, 1+rng.Int63n(int64(maxLen)))
		rng.Read(data)
		var flags uint16
		if i%5 == 4 {
			flags = nbdtest.FlagFUA
		}
		if err := clients[v].Write(off, data, flags); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%50 == 49 {
			if err := clients[v].Flush(); err != nil {
				t.Fatalf("flush %d: %v", i, err)
			}
		}
		spans[v] = append(spans[v], span{off, data})
	}

	// SIGKILL: no drain, no flush. Whatever the NBD acks promised must
	// already be on disk.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_ = cmd.Wait()
	for _, c := range clients {
		c.Close()
	}

	cmd2, addr2 := startNBDHelper(t, dir)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	for v := range spans {
		c, err := nbdtest.Dial(addr2, ExportName(v))
		if err != nil {
			t.Fatalf("dial vol%d after restart: %v", v, err)
		}
		// Replay the acked spans into a shadow image, then compare the
		// whole device: replay order resolves overlaps exactly as the
		// serialized writes did.
		shadow := make([]byte, size)
		live, err := readAll(c, size, 64*testBlockBytes)
		if err != nil {
			t.Fatalf("vol %d readback: %v", v, err)
		}
		// Only bytes some acked span touched are pinned; copy untouched
		// bytes from the live image so the comparison checks exactly
		// the acked writes.
		copy(shadow, live)
		for _, s := range spans[v] {
			copy(shadow[s.off:], s.data)
		}
		if !bytes.Equal(live, shadow) {
			for i := range live {
				if live[i] != shadow[i] {
					t.Fatalf("vol %d: acked write lost at byte %d (block %d): got %#x want %#x",
						v, i, i/testBlockBytes, live[i], shadow[i])
				}
			}
		}
		c.Close()
	}
}
