package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/nbd/nbdtest"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/serve"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

const blockBytes = 64

// fullConfig is the fullest stack Build assembles — 2 durable shards,
// pacer, traced batching server, NBD — over dir, at test geometry.
func fullConfig(dir string, volumes int) serve.Config {
	return serve.Config{
		Engine: prototype.ShardedConfig{
			Engine: prototype.EngineConfig{
				Store: lss.Config{
					BlockSize:     blockBytes,
					ChunkBlocks:   8,
					SegmentChunks: 4,
					UserBlocks:    4096,
					OverProvision: 0.25,
				},
				Telemetry: telemetry.New(telemetry.Options{}),
				Durable:   &segfile.Options{Sync: segfile.SyncAlways},
			},
			Shards: 2,
			PolicyFactory: func(_ int, cfg lss.Config) (lss.Policy, error) {
				return placement.NewSepGC(placement.Params{UserBlocks: cfg.UserBlocks}), nil
			},
		},
		Server: server.Config{
			Volumes: volumes,
			Trace:   server.TraceConfig{Enabled: true},
		},
		GC:      &gcsched.Config{TargetP999: 2 * time.Millisecond},
		NBD:     &nbd.Config{},
		DataDir: dir,
	}
}

// openUnder counts this process's descriptors on files below dir.
func openUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// mappingsOfSize counts the read-write private mappings of exactly n
// bytes in /proc/self/maps: each volume's data plane is one.
func mappingsOfSize(t *testing.T, n int) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	count := 0
	for _, line := range strings.Split(string(maps), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[1] != "rw-p" {
			continue
		}
		lo, hi, _ := strings.Cut(fields[0], "-")
		a, err1 := strconv.ParseUint(lo, 16, 64)
		b, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 == nil && err2 == nil && b-a == uint64(n) {
			count++
		}
	}
	return count
}

// TestStackLifecycle runs the full stack once around: Build starts
// nothing, Serve runs both frontends and the pacer, Shutdown leaves
// Serve returning nil and the directory recoverable, with the layout
// adaptserve documents (engine/shard-N, volumes/).
func TestStackLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := serve.Build(fullConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.GC == nil || st.NBD == nil {
		t.Fatalf("stack missing a configured layer: GC=%v NBD=%v", st.GC, st.NBD)
	}
	if got := st.GC.Stats(); got != (gcsched.Stats{}) {
		t.Fatalf("pacer ran before Serve: %+v", got)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nbdLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- st.Serve(wireLn, nbdLn) }()

	c, err := server.Dial(wireLn.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBlockBytes(blockBytes)
	want := bytes.Repeat([]byte{0xA5}, blockBytes)
	if err := c.Write(7, want); err != nil {
		t.Fatal(err)
	}
	stat, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stat["gcsched_slices"]; !ok {
		t.Fatal("STAT does not report the pacer Build wired into the server")
	}
	c.Close()
	nc, err := net.Dial("tcp", nbdLn.Addr().String())
	if err != nil {
		t.Fatalf("NBD listener not served: %v", err)
	}
	nc.Close()

	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if n := openUnder(t, dir); n != 0 {
		t.Fatalf("%d descriptors still open under the data dir after Shutdown", n)
	}
	for _, p := range []string{"engine/shard-0", "engine/shard-1", "volumes/manifest.json", "volumes/vol-1.dat"} {
		if _, err := os.Stat(filepath.Join(dir, p)); err != nil {
			t.Fatalf("data dir layout: %v", err)
		}
	}

	again, err := serve.Build(fullConfig(dir, 2))
	if err != nil {
		t.Fatalf("rebuild on the same directory: %v", err)
	}
	defer again.Shutdown(context.Background())
	if !again.Engine.Recovered() {
		t.Fatal("rebuilt engine did not recover the log")
	}
	got, err := again.Server.ReadBlocks(1, 7, 1, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("block written before Shutdown reads back %x (%v)", got, err)
	}
}

// promSamples parses a text exposition into sample name → value.
func promSamples(t *testing.T, reg *telemetry.Registry) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsReconcileWithStat drives a burst over both frontends of a
// 2-shard stack, lets it quiesce, lands one more write and scrapes at
// once: per shard and summed, the store counters /metrics renders equal
// STAT's and the engine's own snapshot exactly. Function gauges are
// read at scrape time, so no refresh can leave the last write out.
func TestMetricsReconcileWithStat(t *testing.T) {
	cfg := fullConfig(t.TempDir(), 2)
	cfg.GC = nil // synchronous GC: once the acks are in, nothing moves
	st, err := serve.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown(context.Background())
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nbdLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(wireLn, nbdLn)

	volBlocks := st.Server.VolumeBlocks()
	payload := bytes.Repeat([]byte{0x5A}, 4*blockBytes)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for vol := 0; vol < 2; vol++ {
		wg.Add(2)
		go func(vol int) {
			defer wg.Done()
			c, err := server.Dial(wireLn.Addr().String(), uint32(vol))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.SetBlockBytes(blockBytes)
			for i := int64(0); i < 400; i++ {
				if err := c.Write((i*37)%(volBlocks-4), payload); err != nil {
					errs <- err
					return
				}
			}
		}(vol)
		go func(vol int) {
			defer wg.Done()
			c, err := nbdtest.Dial(nbdLn.Addr().String(), fmt.Sprintf("vol%d", vol))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := int64(0); i < 400; i++ {
				if err := c.Write(uint64((i*53)%(volBlocks-4)*blockBytes), payload, 0); err != nil {
					errs <- err
					return
				}
			}
		}(vol)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Quiesce: two snapshots a little apart agree.
	for prev := st.Engine.ShardStats(); ; {
		time.Sleep(20 * time.Millisecond)
		cur := st.Engine.ShardStats()
		if reflect.DeepEqual(prev, cur) {
			break
		}
		prev = cur
	}

	c, err := server.Dial(wireLn.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetBlockBytes(blockBytes)
	if err := c.Write(1, payload[:blockBytes]); err != nil {
		t.Fatal(err)
	}
	prom := promSamples(t, cfg.Engine.Engine.Telemetry.Registry)
	stat, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	shards := st.Engine.ShardStats()
	if again := st.Engine.ShardStats(); !reflect.DeepEqual(shards, again) {
		t.Fatalf("engine still moving after quiescence: %+v then %+v", shards, again)
	}

	for _, m := range []struct {
		family, store, shard string // shard: STAT's shardN_ suffix, if STAT has one
		of                   func(prototype.EngineStats) int64
	}{
		{telemetry.MetricUserBlocks, "store_user_blocks", "user_blocks", func(s prototype.EngineStats) int64 { return s.UserBlocks }},
		{telemetry.MetricPaddingBlocks, "store_padding_blocks", "", func(s prototype.EngineStats) int64 { return s.PaddingBlocks }},
		{telemetry.MetricGCBlocks, "store_gc_blocks", "gc_blocks", func(s prototype.EngineStats) int64 { return s.GCBlocks }},
		{telemetry.MetricChunkFlushes, "store_chunk_flushes", "", func(s prototype.EngineStats) int64 { return s.ChunkFlushes }},
		{telemetry.MetricFreeSegments, "store_free_segments", "free_segments", func(s prototype.EngineStats) int64 { return int64(s.FreeSegments) }},
	} {
		var sum int64
		for i, sh := range shards {
			name := fmt.Sprintf(`%s{shard="%d"}`, m.family, i)
			v, ok := prom[name]
			if !ok || v != m.of(sh) {
				t.Errorf("%s = %d (present %v), engine shard %d reports %d", name, v, ok, i, m.of(sh))
			}
			if key := fmt.Sprintf("shard%d_%s", i, m.shard); m.shard != "" && stat[key] != v {
				t.Errorf("%s = %d, STAT %s = %d", name, v, key, stat[key])
			}
			sum += v
		}
		if stat[m.store] != sum {
			t.Errorf("Σ %s = %d, STAT %s = %d", m.family, sum, m.store, stat[m.store])
		}
	}
	for i, sh := range shards {
		if sh.UserBlocks == 0 {
			t.Errorf("shard %d took no traffic: %+v", i, sh)
		}
	}
}

// TestBuildFailureReleases fails Build at its last fallible step over
// real files — the engine has recovered its log and started its device
// workers when the server refuses the directory's volume manifest — and
// checks that nothing Build opened — no descriptor, no goroutine, no
// mapped data plane — outlives the error. A data-dir stack keeps each
// volume's bytes in its vol-N.dat alone, so it maps no plane at all.
func TestBuildFailureReleases(t *testing.T) {
	dir := t.TempDir()
	// One volume's size over 2 volumes and over 4.
	const plane2, plane4 = 4096 / 2 * blockBytes, 4096 / 4 * blockBytes
	before2, before4 := mappingsOfSize(t, plane2), mappingsOfSize(t, plane4)
	st, err := serve.Build(fullConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n := mappingsOfSize(t, plane2); n != before2 {
		t.Fatalf("a built 2-volume data-dir stack maps %d planes, want none", n-before2)
	}
	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()

	_, err = serve.Build(fullConfig(dir, 4)) // manifest says 2 volumes
	if err == nil || !strings.Contains(err.Error(), "manifest.json") {
		t.Fatalf("Build over a mismatched manifest: %v, want the manifest error", err)
	}
	if n := openUnder(t, dir); n != 0 {
		t.Fatalf("failed Build left %d descriptors open under the data dir", n)
	}
	if n := mappingsOfSize(t, plane4); n != before4 {
		t.Fatalf("failed Build left %d data planes mapped", n-before4)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Fatalf("failed Build left %d goroutines running:\n%s", n-goroutines, buf[:runtime.Stack(buf, true)])
	}
}
