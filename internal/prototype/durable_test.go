package prototype

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/segfile"
)

func durableCfg() lss.Config {
	return lss.Config{
		BlockSize:     64,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    4096,
		OverProvision: 0.25,
	}
}

func durablePolicy(cfg lss.Config) lss.Policy {
	return placement.NewSepGC(placement.Params{UserBlocks: cfg.UserBlocks})
}

// durableSharded boots a durable engine of the given shard count on
// dir (each shard logs to dir/shard-N).
func durableSharded(t *testing.T, dir string, shards int) *Sharded {
	t.Helper()
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       durableCfg(),
			ServiceTime: time.Microsecond,
			Durable:     &segfile.Options{Dir: dir, Sync: segfile.SyncAlways},
		},
		Shards:        shards,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedDurableRoundTrip writes through a durable engine — of one
// shard and of two — closes it, and reopens the same directory: every
// shard gets its own subdirectory, and the second boot must adopt the
// recovered stores instead of starting fresh, report what it rolled
// forward, and keep serving.
func TestShardedDurableRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s := durableSharded(t, dir, shards)
			if s.Recovered() {
				t.Fatal("fresh directory reported as recovered")
			}
			for i := int64(0); i < 1200; i++ {
				if _, err := s.WriteTimed(i%4000, 1); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			ds, ok := s.DurableStats()
			if !ok {
				t.Fatal("durable engine reports no DurableStats")
			}
			if ds.Fsyncs == 0 || ds.BytesWritten == 0 {
				t.Fatalf("no durable traffic recorded: %+v", ds)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			s2 := durableSharded(t, dir, shards)
			defer s2.Close()
			if !s2.Recovered() {
				t.Fatal("second boot did not recover the on-disk log")
			}
			ds2, _ := s2.DurableStats()
			if ds2.RecoveredSegments == 0 || ds2.RecoveredBlocks == 0 {
				t.Fatalf("recovery rolled nothing forward: %+v", ds2)
			}
			// The recovered stores keep serving: appends land on the
			// same logs.
			for i := int64(0); i < 64; i++ {
				if _, err := s2.WriteTimed(i*61, 1); err != nil {
					t.Fatalf("post-recovery write %d: %v", i, err)
				}
			}
		})
	}
}

// TestEngineDurableVerifyRejectsRecovered pins the documented
// restriction: Verify's shadow mirror starts empty, so adopting a
// recovered (non-empty) store under it must fail loudly.
func TestEngineDurableVerifyRejectsRecovered(t *testing.T) {
	dir := t.TempDir()
	e := durableSharded(t, dir, 1)
	for i := int64(0); i < 600; i++ {
		if _, err := e.WriteTimed(i%512, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       durableCfg(),
			ServiceTime: time.Microsecond,
			Verify:      true,
			Durable:     &segfile.Options{Dir: dir, Sync: segfile.SyncAlways},
		},
		Shards:        1,
		PolicyFactory: sepGCFactory(t),
	})
	if err == nil || !strings.Contains(err.Error(), "Verify") {
		t.Fatalf("Verify over recovered data: got %v, want rejection", err)
	}
}

// TestShardedDurableRequiresDir pins the precondition: per-shard
// subdirectories need a root path, so an FS-injected Options without
// Dir is rejected up front.
func TestShardedDurableRequiresDir(t *testing.T) {
	_, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       durableCfg(),
			ServiceTime: time.Microsecond,
			Durable:     &segfile.Options{FS: segfile.NewMemFS()},
		},
		Shards:        2,
		PolicyFactory: sepGCFactory(t),
	})
	if err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("sharded durable without Dir: got %v, want rejection", err)
	}
}
