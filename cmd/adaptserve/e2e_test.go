package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adapt/internal/nbd"
	"adapt/internal/nbd/nbdtest"
	"adapt/internal/server"
)

// The out-of-process gates: every test here runs the adaptserve binary
// this package builds — not a test-binary stand-in — on loopback ports
// the kernel picks, reads the addresses off its boot lines, and kills
// it on every exit path. The two SIGKILL tests are the durability
// contract end to end (an acked write survives a kill with no shutdown
// path); the smokes are the boot/load/scrape/drain loops `make check`
// runs.

// binDir holds adaptserve, adaptload and nbdload, built once by
// TestMain.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		if flag.Parse(); testing.Short() {
			return m.Run() // every test that needs the binaries skips
		}
		dir, err := os.MkdirTemp("", "adaptserve-e2e-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		binDir = dir
		args := []string{"build", "-o", dir + string(filepath.Separator)}
		if raceBuilt() {
			// Keep the served process under the detector too.
			args = append(args, "-race")
		}
		args = append(args, "adapt/cmd/adaptserve", "adapt/cmd/adaptload", "adapt/cmd/nbdload")
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go %s: %v\n%s", strings.Join(args, " "), err, out)
			return 1
		}
		return m.Run()
	}())
}

// raceBuilt reports whether this test binary was built with -race.
func raceBuilt() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// served is one running adaptserve and what its boot lines announced.
type served struct {
	cmd                  *exec.Cmd
	wire, nbd, telemetry string

	mu      sync.Mutex
	out     bytes.Buffer // every stdout line so far
	drained chan struct{}
	reaped  sync.Once
}

// startServer spawns adaptserve with args (plus -addr on port 0),
// waits for the "serving …" line, and registers a kill for every exit
// path of the test.
func startServer(t *testing.T, args ...string) *served {
	t.Helper()
	s := &served{drained: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(binDir, "adaptserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = os.Stderr
	// If the test binary dies without its cleanups, the kernel takes
	// the server down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.kill)
	ready := make(chan bool, 2) // the boot line, then EOF
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.out.WriteString(line + "\n")
			s.mu.Unlock()
			addr := line[strings.LastIndexByte(line, ' ')+1:]
			switch {
			case strings.HasPrefix(line, "telemetry on http://"):
				s.telemetry = strings.TrimPrefix(strings.Fields(line)[2], "http://")
				s.telemetry = strings.TrimSuffix(s.telemetry, "/")
			case strings.HasPrefix(line, "nbd: "):
				s.nbd = addr
			case strings.HasPrefix(line, "serving "):
				s.wire = addr
				ready <- true
			}
		}
		ready <- false // EOF; ignored once the boot line was seen
	}()
	select {
	case ok := <-ready:
		if !ok {
			s.kill()
			t.Fatalf("adaptserve %v exited before listening:\n%s", args, s.stdout())
		}
	case <-time.After(60 * time.Second):
		s.kill()
		t.Fatalf("adaptserve %v not listening after 60s:\n%s", args, s.stdout())
	}
	return s
}

func (s *served) stdout() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.String()
}

// waitLine polls the server's stdout for a line the boot prints after
// "serving …" (the durable: line), failing the test after 10 s.
func (s *served) waitLine(t *testing.T, substr string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(s.stdout(), substr); {
		if time.Now().After(deadline) {
			t.Fatalf("adaptserve never printed %q:\n%s", substr, s.stdout())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reap waits for the process after the stdout reader has drained (Wait
// closes the pipe under it otherwise).
func (s *served) reap() (err error) {
	s.reaped.Do(func() {
		<-s.drained
		err = s.cmd.Wait()
	})
	return err
}

// kill SIGKILLs the server — no drain, no flush — and reaps it.
func (s *served) kill() {
	s.cmd.Process.Kill()
	s.reap()
}

// term SIGTERMs the server and returns everything it printed once it
// has exited; a non-zero exit fails the test.
func (s *served) term(t *testing.T) string {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := s.reap(); err != nil {
		t.Fatalf("adaptserve after SIGTERM: %v\n%s", err, s.stdout())
	}
	return s.stdout()
}

// scrape GETs path from the server's telemetry listener.
func (s *served) scrape(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + s.telemetry + path)
	if err != nil {
		t.Fatalf("scrape %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d, %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// runLoad runs one of the bundled load generators to completion and
// returns its output.
func runLoad(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, bin), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

var aggregateRate = regexp.MustCompile(`(?m)^aggregate: .* ([0-9.]+) ops/s`)

// aggregateOpsPerSec extracts the ops/s figure of a load report's
// aggregate line and requires it to be positive.
func aggregateOpsPerSec(t *testing.T, report string) float64 {
	t.Helper()
	m := aggregateRate.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no aggregate line in load report:\n%s", report)
	}
	rate, err := strconv.ParseFloat(m[1], 64)
	if err != nil || rate <= 0 {
		t.Fatalf("aggregate rate %q is not positive:\n%s", m[1], report)
	}
	return rate
}

func mustContain(t *testing.T, what, text string, needles ...string) {
	t.Helper()
	for _, n := range needles {
		if !strings.Contains(text, n) {
			t.Fatalf("%s lacks %q:\n%s", what, n, text)
		}
	}
}

func skipLoad(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns real server processes and drives a load burst")
	}
}

// The durable stack both SIGKILL tests boot: 2 shards logging to
// <dir>/engine/shard-N under -durable-sync always, 2 volumes of 2048
// 4 KiB blocks in <dir>/volumes, 1 ms group commits. Geometry must be
// identical across the two boots; the volume manifest and the segfile
// geometry fingerprint both verify that.
const (
	e2eVolumes    = 2
	e2eBlockBytes = 4096
	e2eVolBlocks  = 4096 / e2eVolumes
)

func durableArgs(dir string, extra ...string) []string {
	return append([]string{"-telemetry", "", "-data-dir", dir, "-shards", "2", "-durable-sync", "always",
		"-policy", "sepgc", "-user-blocks", "4096", "-volumes", strconv.Itoa(e2eVolumes),
		"-service-us", "1"}, extra...)
}

// pattern fills one block deterministically from (volume, lba, version)
// so read-back verification needs no shared state.
func pattern(volume uint32, lba int64, version byte) []byte {
	b := make([]byte, e2eBlockBytes)
	for i := range b {
		b[i] = byte(int64(volume)*31+lba*7+int64(version)*13+int64(i)) | 1
	}
	return b
}

func dial(t *testing.T, addr string, volume uint32) *server.Client {
	t.Helper()
	c, err := server.Dial(addr, volume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDurableSIGKILLRestart writes acked blocks to a live adaptserve,
// SIGKILLs it mid-flight, reboots it on the same directory, and
// verifies every acked payload reads back byte-identical. An acked
// write that does not survive is a durability bug in the volume backing
// files or the segfile log.
func TestDurableSIGKILLRestart(t *testing.T) {
	skipLoad(t)
	dir := t.TempDir()
	srv := startServer(t, durableArgs(dir)...)
	srv.waitLine(t, "durable: fresh log in "+dir+" (sync=always, odirect=false)")
	clients := make([]*server.Client, e2eVolumes)
	for v := range clients {
		clients[v] = dial(t, srv.wire, uint32(v))
	}

	// shadow[volume][lba] is the version byte of the last ACKED write;
	// anything acked before the kill must survive it.
	shadow := make([]map[int64]byte, e2eVolumes)
	for v := range shadow {
		shadow[v] = make(map[int64]byte)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		v := rng.Intn(e2eVolumes)
		lba := rng.Int63n(e2eVolBlocks)
		ver := byte(i%250 + 1)
		if err := clients[v].Write(lba, pattern(uint32(v), lba, ver)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%5 == 4 {
			if err := clients[v].Flush(); err != nil {
				t.Fatalf("flush after write %d: %v", i, err)
			}
		}
		shadow[v][lba] = ver
	}

	// The live process must be visibly paying for durability: STAT
	// carries the fsync histogram and a nonzero fsync count.
	preStats, err := clients[0].Stats()
	if err != nil {
		t.Fatalf("stats before kill: %v", err)
	}
	for _, key := range []string{"durable_fsyncs", "durable_fsync_p50_ns", "durable_fsync_p99_ns",
		"durable_fsync_p999_ns", "durable_synced_segments", "durable_checkpoints"} {
		if _, ok := preStats[key]; !ok {
			t.Fatalf("STAT missing %s: %v", key, preStats)
		}
	}
	if preStats["durable_fsyncs"] < 1 {
		t.Fatalf("engine acked writes without fsyncing: %v", preStats)
	}
	if preStats["srv_batches"] < 1 {
		t.Fatalf("acked writes never went through group commit: %v", preStats)
	}

	// SIGKILL: no drain, no flush, no deferred sync. Whatever the acks
	// promised must already be on disk.
	srv.kill()
	for _, c := range clients {
		c.Close()
	}
	for _, sub := range []string{"engine/shard-0", "engine/shard-1", "volumes"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
			t.Fatalf("data dir layout: %v", err)
		}
	}

	srv2 := startServer(t, durableArgs(dir)...)
	srv2.waitLine(t, "durable: recovered ")
	for v := range shadow {
		c := dial(t, srv2.wire, uint32(v))
		for lba, ver := range shadow[v] {
			got, err := c.Read(lba, 1)
			if err != nil {
				t.Fatalf("vol %d lba %d: read after restart: %v", v, lba, err)
			}
			if want := pattern(uint32(v), lba, ver); !bytes.Equal(got, want) {
				t.Fatalf("vol %d lba %d: acked write lost: got %x… want %x…", v, lba, got[:16], want[:16])
			}
		}
	}

	// The rebooted engine must have rolled its mapping forward from the
	// segfile log, and STAT must surface the durable instruments.
	stats, err := dial(t, srv2.wire, 0).Stats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if stats["durable_recovered_segments"] < 1 || stats["durable_recovered_blocks"] < 1 {
		t.Fatalf("restarted engine recovered nothing: %v", stats)
	}
}

// readAll reads the first size bytes of an NBD export in step-sized
// requests.
func readAll(c *nbdtest.Client, size uint64, step uint32) ([]byte, error) {
	out := make([]byte, 0, size)
	for off := uint64(0); off < size; off += uint64(step) {
		n := step
		if size-off < uint64(n) {
			n = uint32(size - off)
		}
		buf, err := c.Read(off, n)
		if err != nil {
			return nil, fmt.Errorf("read at %d: %w", off, err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

// TestNBDDurableSIGKILLRestart writes byte spans over NBD to a live
// adaptserve — aligned and unaligned (RMW), some FUA, periodic flushes
// — SIGKILLs it with no shutdown path, reboots on the same data
// directory, and verifies every acked span reads back byte-identical
// over a fresh NBD connection.
func TestNBDDurableSIGKILLRestart(t *testing.T) {
	skipLoad(t)
	dir := t.TempDir()
	srv := startServer(t, durableArgs(dir, "-nbd-addr", "127.0.0.1:0")...)
	clients := make([]*nbdtest.Client, e2eVolumes)
	for v := range clients {
		c, err := nbdtest.Dial(srv.nbd, nbd.ExportName(v))
		if err != nil {
			t.Fatalf("dial vol%d: %v", v, err)
		}
		defer c.Close()
		clients[v] = c
	}
	size := clients[0].Info().Size
	if size != e2eVolBlocks*e2eBlockBytes {
		t.Fatalf("export size %d, want %d", size, e2eVolBlocks*e2eBlockBytes)
	}

	// spans[volume] records every acked byte span, latest-wins via
	// replay order. Every one of them is acked, so every one of them
	// must survive the kill.
	type span struct {
		off  uint64
		data []byte
	}
	spans := make([][]span, e2eVolumes)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		v := rng.Intn(e2eVolumes)
		off := uint64(rng.Int63n(int64(size)))
		maxLen := size - off
		if maxLen > 3*e2eBlockBytes {
			maxLen = 3 * e2eBlockBytes
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
	srv.kill()

	srv2 := startServer(t, durableArgs(dir, "-nbd-addr", "127.0.0.1:0")...)
	for v := range spans {
		c, err := nbdtest.Dial(srv2.nbd, nbd.ExportName(v))
		if err != nil {
			t.Fatalf("dial vol%d after restart: %v", v, err)
		}
		live, err := readAll(c, size, 64*e2eBlockBytes)
		c.Close()
		if err != nil {
			t.Fatalf("vol %d readback: %v", v, err)
		}
		// Replay the acked spans over a copy of the live image — only
		// bytes some acked span touched are pinned — and compare the
		// whole device: replay order resolves overlaps exactly as the
		// serialized writes did.
		shadow := bytes.Clone(live)
		for _, s := range spans[v] {
			copy(shadow[s.off:], s.data)
		}
		for i := range live {
			if live[i] != shadow[i] {
				t.Fatalf("vol %d: acked write lost at byte %d (block %d): got %#x want %#x",
					v, i, i/e2eBlockBytes, live[i], shadow[i])
			}
		}
	}
}

// TestServeSmoke boots the network service end to end: adaptserve on
// loopback, a short adaptload burst, a telemetry scrape, and a graceful
// SIGTERM drain that still prints the final stats line.
func TestServeSmoke(t *testing.T) {
	skipLoad(t)
	srv := startServer(t, "-telemetry", "127.0.0.1:0", "-service-us", "0")
	report := runLoad(t, "adaptload", "-addr", srv.wire, "-tenants", "4", "-workers", "4", "-duration", "1s")
	t.Logf("aggregate %.0f ops/s", aggregateOpsPerSec(t, report))
	mustContain(t, "/metrics", srv.scrape(t, "/metrics"), "srv_requests_total")
	mustContain(t, "adaptserve output", srv.term(t), "draining...", "\nfinal: ")
}

// TestLoadFailsWhenServerDies SIGKILLs the server under a running load
// generator, over either protocol: the generator must still print what
// it measured, then exit non-zero naming the worker op that failed —
// the smokes above trust its exit status to mean every worker ran to
// the deadline.
func TestLoadFailsWhenServerDies(t *testing.T) {
	skipLoad(t)
	for _, tc := range []struct {
		bin    string
		args   func(*served) []string
		failed string
	}{
		{"adaptload", func(s *served) []string { return []string{"-addr", s.wire, "-tenants", "2"} }, "\nadaptload: tenant "},
		{"nbdload", func(s *served) []string { return []string{"-addr", s.nbd} }, "\nnbdload: worker "},
	} {
		t.Run(tc.bin, func(t *testing.T) {
			srv := startServer(t, "-telemetry", "", "-service-us", "0", "-nbd-addr", "127.0.0.1:0")
			load := exec.Command(filepath.Join(binDir, tc.bin), append(tc.args(srv), "-workers", "2", "-duration", "30s")...)
			var out bytes.Buffer
			load.Stdout, load.Stderr = &out, &out
			if err := load.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { load.Process.Kill() })
			// Mid-burst: the server has acked load traffic (the probe's own
			// STATs are not writes, so batches can only come from the load).
			probe := dial(t, srv.wire, 0)
			for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				st, err := probe.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st["srv_batches"] > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s never reached the server:\n%s", tc.bin, out.String())
				}
			}
			srv.kill()
			err := load.Wait()
			report := out.String()
			if code := load.ProcessState.ExitCode(); err == nil || code != 1 {
				t.Fatalf("%s exit %d (%v) after the server died, want 1:\n%s", tc.bin, code, err, report)
			}
			agg, failed := strings.Index(report, "\naggregate: "), strings.Index(report, tc.failed)
			if agg < 0 || failed < agg {
				t.Fatalf("want the aggregate report, then the failed worker op:\n%s", report)
			}
			// Rates divide by the time the workers really ran, not by -duration.
			m := regexp.MustCompile(`(?m)^aggregate: \d+ ops in (\S+) `).FindStringSubmatch(report)
			if m == nil {
				t.Fatalf("no elapsed time on the aggregate line:\n%s", report)
			}
			if ran, err := time.ParseDuration(m[1]); err != nil || ran >= 30*time.Second {
				t.Fatalf("aggregate reports %q elapsed (%v) for a burst cut short of its 30s:\n%s", m[1], err, report)
			}
		})
	}
}

// TestHelpOmitsRemovedFlags: group commit is the only write path and
// the store's SLA window its only deadline, so neither the server nor
// the wire generator offers a flag to leave the one or set another.
func TestHelpOmitsRemovedFlags(t *testing.T) {
	skipLoad(t)
	for _, tc := range []struct {
		bin  string
		has  string
		gone []string
	}{
		{"adaptserve", "-max-inflight", []string{"-batch", "-batch-us"}},
		{"adaptload", "-flush-every", []string{"-sync"}},
	} {
		out, _ := exec.Command(filepath.Join(binDir, tc.bin), "-h").CombinedOutput()
		flags := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "  -") {
				flags[strings.Fields(line)[0]] = true
			}
		}
		if !flags[tc.has] {
			t.Errorf("%s -h: want %s listed:\n%s", tc.bin, tc.has, out)
		}
		for _, f := range tc.gone {
			if flags[f] {
				t.Errorf("%s -h: want %s gone:\n%s", tc.bin, f, out)
			}
		}
	}
}

// TestTraceSmoke boots the traced service: an adaptload burst with
// client-forced exemplars and interleaved flushes must come back with
// the per-stage breakdown, and /debug/trace must serve attributed
// exemplars.
func TestTraceSmoke(t *testing.T) {
	skipLoad(t)
	srv := startServer(t, "-telemetry", "127.0.0.1:0", "-service-us", "0", "-trace")
	report := runLoad(t, "adaptload", "-addr", srv.wire, "-tenants", "4", "-workers", "4", "-duration", "1s",
		"-trace-every", "4", "-flush-every", "32")
	aggregateOpsPerSec(t, report)
	mustContain(t, "load report", report, "server stage latency")
	mustContain(t, "/debug/trace", srv.scrape(t, "/debug/trace?k=8"), `"cause":`, `"total_ns":`)
	mustContain(t, "/metrics", srv.scrape(t, "/metrics"), "srv_trace_exemplars_total")
	srv.term(t)
}

// TestNBDSmoke boots adaptserve with -nbd-addr: an nbdload burst with
// unaligned writes and end-of-run verify over the standard protocol, a
// scrape for the nbd_* families, and a graceful SIGTERM drain.
func TestNBDSmoke(t *testing.T) {
	skipLoad(t)
	srv := startServer(t, "-telemetry", "127.0.0.1:0", "-nbd-addr", "127.0.0.1:0", "-service-us", "0")
	mustContain(t, "boot lines", srv.stdout(), "nbd: 8 exports (vol0..vol7) on ")
	report := runLoad(t, "nbdload", "-addr", srv.nbd, "-export", "vol0", "-workers", "4", "-duration", "1s",
		"-unaligned", "0.5", "-verify")
	aggregateOpsPerSec(t, report)
	mustContain(t, "load report", report, "verify: all worker slices read back byte-identical")
	mustContain(t, "/metrics", srv.scrape(t, "/metrics"),
		"nbd_requests_total", "nbd_handshakes_total", "nbd_rmw_writes_total")
	mustContain(t, "adaptserve output", srv.term(t), "\nfinal: ")
}

// TestScaleSmoke asserts the sharded engine actually scales: the same
// adaptload burst against 1 shard and against 4 must give the 4-shard
// server at least 1.5× the aggregate throughput. Needs real cores to
// mean anything.
func TestScaleSmoke(t *testing.T) {
	skipLoad(t)
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >=4 CPUs, have %d", n)
	}
	rate := map[string]float64{}
	for _, shards := range []string{"1", "4"} {
		srv := startServer(t, "-telemetry", "", "-shards", shards, "-trace=false")
		rate[shards] = aggregateOpsPerSec(t, runLoad(t, "adaptload",
			"-addr", srv.wire, "-tenants", "8", "-workers", "8", "-duration", "1s"))
		srv.term(t)
	}
	t.Logf("1 shard %.0f ops/s, 4 shards %.0f ops/s (%.2fx)", rate["1"], rate["4"], rate["4"]/rate["1"])
	if rate["4"] <= 1.5*rate["1"] {
		t.Fatalf("4 shards gave %.0f ops/s, want more than 1.5× the 1-shard %.0f", rate["4"], rate["1"])
	}
}

// TestNBDMountSmoke is the kernel-attach gate: a real nbd-client attach
// to /dev/nbd0, an fio verify burst against the kernel block device,
// and a clean detach. It needs root, the nbd kernel module, and
// nbd-client + fio on PATH, and skips where the host can't run it.
func TestNBDMountSmoke(t *testing.T) {
	skipLoad(t)
	for _, tool := range []string{"nbd-client", "fio"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("no %s", tool)
		}
	}
	if os.Getuid() != 0 {
		t.Skip("needs root")
	}
	const dev = "/dev/nbd0"
	if exec.Command("modprobe", "nbd").Run() != nil {
		if fi, err := os.Stat(dev); err != nil || fi.Mode()&os.ModeDevice == 0 {
			t.Skip("no nbd kernel module")
		}
	}
	srv := startServer(t, "-telemetry", "", "-nbd-addr", "127.0.0.1:0", "-service-us", "0")
	port := srv.nbd[strings.LastIndexByte(srv.nbd, ':')+1:]
	run := func(name string, args ...string) {
		t.Helper()
		if out, err := exec.Command(name, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
	}
	run("nbd-client", "-N", "vol0", "127.0.0.1", port, dev)
	t.Cleanup(func() { exec.Command("nbd-client", "-d", dev).Run() })
	run("fio", "--name=nbdsmoke", "--filename="+dev, "--rw=randrw", "--bs=4k", "--size=4M", "--io_size=8M",
		"--direct=1", "--verify=crc32c", "--do_verify=1")
	run("nbd-client", "-d", dev)
	srv.term(t)
}
