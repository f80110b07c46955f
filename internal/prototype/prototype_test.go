package prototype

import (
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
)

func protoStoreConfig() lss.Config {
	return lss.Config{
		BlockSize:     4096,
		ChunkBlocks:   8,
		SegmentChunks: 8,
		DataColumns:   3,
		UserBlocks:    8 << 10,
		OverProvision: 0.2,
		SLAWindow:     100 * sim.Microsecond,
	}
}

func protoPolicy(t *testing.T) lss.Policy {
	t.Helper()
	p, err := placement.New("sepgc", placement.Params{UserBlocks: 8 << 10, SegmentBlocks: 64, ChunkBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunCompletesAllOps(t *testing.T) {
	res, err := Run(Config{
		Engine: EngineConfig{
			Store:       protoStoreConfig(),
			Policy:      protoPolicy(t),
			ServiceTime: time.Microsecond,
			QueueDepth:  8,
		},
		Clients: 4,
		Ops:     20000,
		Theta:   0.99,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 {
		t.Fatal("zero throughput")
	}
	if res.WA < 1 {
		t.Fatalf("WA %f < 1", res.WA)
	}
	if res.ChunksWritten == 0 {
		t.Fatal("no chunks reached the devices")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Engine: EngineConfig{Store: protoStoreConfig(), Policy: protoPolicy(t)}, Clients: 0, Ops: 10}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := Run(Config{Engine: EngineConfig{Store: protoStoreConfig(), Policy: protoPolicy(t)}, Clients: 1, Ops: 0}); err == nil {
		t.Fatal("zero ops accepted")
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// With a large service time the device model must throttle
	// throughput: chunks = ops/chunkBlocks (plus GC), each costing
	// ServiceTime spread over 3 data columns.
	svc := 200 * time.Microsecond
	const ops = 6000
	res, err := Run(Config{
		Engine: EngineConfig{
			Store:       protoStoreConfig(),
			Policy:      protoPolicy(t),
			ServiceTime: svc,
			QueueDepth:  4,
		},
		Clients: 4,
		Ops:     ops,
		Theta:   0.5,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound on elapsed: data chunks spread over data columns.
	minChunks := res.ChunksWritten / 3
	minElapsed := time.Duration(minChunks) * svc
	if res.Elapsed < minElapsed/2 {
		t.Fatalf("elapsed %v beat the bandwidth model floor %v", res.Elapsed, minElapsed)
	}
}

func TestMoreClientsDoNotLoseOps(t *testing.T) {
	for _, clients := range []int{1, 2, 8} {
		res, err := Run(Config{
			Engine: EngineConfig{
				Store:       protoStoreConfig(),
				Policy:      protoPolicy(t),
				ServiceTime: time.Microsecond,
				QueueDepth:  8,
			},
			Clients: clients,
			Ops:     5000,
			Theta:   0.9,
			Seed:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OpsPerSec <= 0 {
			t.Fatalf("%d clients: no throughput", clients)
		}
	}
}

func TestFootprintHelper(t *testing.T) {
	p := protoPolicy(t)
	if Footprint(p) != 0 {
		t.Fatal("sepgc should report zero footprint")
	}
	sb, err := placement.New("sepbit", placement.Params{UserBlocks: 1024, SegmentBlocks: 64, ChunkBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if Footprint(sb) != 1024*8 {
		t.Fatalf("sepbit footprint = %d", Footprint(sb))
	}
}
