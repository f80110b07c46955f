package prototype

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// step is one job of a replayed column: when its sender sent it, how
// many jobs it found queued, when it entered the queue and was
// dequeued, and when the worker was free again after it.
type step struct {
	sent             time.Duration
	found            int
	enter, deq, free time.Duration
}

// replay drives column c with one closed-loop sender: job k is sent at
// at[k] or, if later, when job k-1 entered — a sender waiting on a full
// queue cannot send its next job early. Nothing sleeps: the times are
// the recurrence's.
func replay(c *column, service time.Duration, at []time.Duration) []step {
	out := make([]step, len(at))
	var prev time.Duration
	for k, a := range at {
		sent := max(a, prev)
		slot, found := c.next, c.queued(sent)
		enter := c.schedule(sent, service)
		out[k] = step{sent: sent, found: found, enter: enter, deq: c.deq[slot], free: c.free}
		prev = enter
	}
	return out
}

// arrivals returns n arrival times from first, every gap apart.
func arrivals(first, gap time.Duration, n int) []time.Duration {
	at := make([]time.Duration, n)
	for k := range at {
		at[k] = first + time.Duration(k)*gap
	}
	return at
}

// TestColumnRecurrence checks the device model's four properties over
// synthetic arrivals: the bandwidth ceiling, the QueueDepth bound, the
// sleep granule, and banked idle credit — which a spare swapped in for
// a failed column starts without.
func TestColumnRecurrence(t *testing.T) {
	const depth = 8
	const svc = 50 * time.Microsecond
	for _, tc := range []struct {
		name    string
		service time.Duration
		at      []time.Duration
		// saturated: the run ends in debt, held to the ceiling.
		saturated bool
		// waits: whether any sender waits to enter the queue.
		waits bool
		// spare: a fresh device is swapped in at the first arrival.
		spare bool
	}{
		{"burst at start", svc, arrivals(0, 0, 200), true, true, false},
		{"paced above the ceiling", svc, arrivals(0, svc/5, 400), true, true, false},
		{"paced at the ceiling", svc, arrivals(0, svc, 400), false, false, false},
		{"paced below the ceiling", svc, arrivals(0, 2*svc, 400), false, false, false},
		// 200 × 50 µs = 10 ms of service, arriving after 20 ms idle.
		{"burst after idle", svc, arrivals(20*time.Millisecond, 0, 200), false, false, false},
		{"burst on a spare after idle", svc, arrivals(20*time.Millisecond, 0, 200), true, true, true},
		// Idle credit covers only the first 2 ms of a 10 ms burst.
		{"burst outruns its credit", svc, arrivals(2*time.Millisecond, 0, 200), true, true, false},
		{"fast service", time.Microsecond, arrivals(0, 0, 32), false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &column{deq: make([]time.Duration, depth)}
			// Service is owed from the array's start, or from the swap.
			var origin time.Duration
			if tc.spare {
				origin = tc.at[0]
				c.replace(origin)
			}
			steps := replay(c, tc.service, tc.at)
			n := time.Duration(len(steps))
			last := steps[len(steps)-1]

			// Bandwidth ceiling: the last job, dequeued and serviced,
			// finishes no earlier than n × service less the one granule
			// of debt the worker never sleeps off; a saturated run
			// finishes inside that granule, so the ceiling is tight.
			if c.virtual-origin != n*tc.service {
				t.Fatalf("virtual %v, want %v", c.virtual-origin, n*tc.service)
			}
			finish := last.deq + tc.service - origin
			if finish < n*tc.service-granule {
				t.Fatalf("%d jobs finished at %v, below %v of service less a granule", n, finish, n*tc.service)
			}
			if tc.saturated && finish > n*tc.service {
				t.Fatalf("%d saturated jobs finished at %v, after their %v of service", n, finish, n*tc.service)
			}

			waited := false
			for k, s := range steps {
				// QueueDepth bound: job k enters once job k-depth has
				// been dequeued, and not before it is sent.
				want := s.sent
				if k >= depth {
					want = max(want, steps[k-depth].deq)
				}
				if s.enter != want {
					t.Fatalf("job %d entered at %v, want %v", k, s.enter, want)
				}
				// A sender waits exactly when it finds the queue full.
				if (s.enter > s.sent) != (s.found == depth) {
					t.Fatalf("job %d found %d queued of %d and waited %v", k, s.found, depth, s.enter-s.sent)
				}
				// The worker dequeues in order, once free.
				if k > 0 && s.deq != max(s.enter, steps[k-1].free) {
					t.Fatalf("job %d dequeued at %v, entered %v, worker free %v", k, s.deq, s.enter, steps[k-1].free)
				}
				// Granule: the worker either runs on or sleeps off more
				// than a granule of debt, so stalls come in bursts.
				if stall := s.free - s.deq; stall != 0 && stall <= granule {
					t.Fatalf("job %d: worker stalled %v, within the %v granule", k, stall, granule)
				}
				waited = waited || s.enter > s.sent
			}
			// Banked credit: a column that sat idle absorbs a burst its
			// credit covers with no wait at all.
			if waited != tc.waits {
				t.Fatalf("a sender waited: %v, want %v", waited, tc.waits)
			}
		})
	}
}

// TestServedEngineHasNoDeviceModel: a served engine (NewSharded) builds
// no device array. Writes, reads, batches, GC cycles and Close block on
// no device queue, so SinkNS stays 0, and the engine registers no
// proto_device_* family — those are Run's alone.
func TestServedEngineHasNoDeviceModel(t *testing.T) {
	ts := telemetry.New(telemetry.Options{})
	s, err := NewSharded(ShardedConfig{
		Engine:        EngineConfig{Store: shardedTestConfig(1024), Telemetry: ts, Fill: true},
		Shards:        2,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		if e := s.Shard(i); e.devs != nil || e.rng != nil || e.tb.virtual != nil {
			t.Fatalf("shard %d carries a device model", i)
		}
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 4000; i++ {
		lba := int64(rng.Intn(1024))
		w, err := s.WriteTimed(lba, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.ReadTimed(lba, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.WriteBatchTimed([]BatchWrite{{LBA: lba, Blocks: 1}, {LBA: 1023 - lba, Blocks: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if w.SinkNS != 0 || r.SinkNS != 0 || b.SinkNS != 0 {
			t.Fatalf("op %d blocked on a device: write %d, read %d, batch %d ns", i, w.SinkNS, r.SinkNS, b.SinkNS)
		}
	}
	st := s.Stats()
	if st.GCCycles == 0 || st.ParityChunks == 0 {
		t.Fatalf("GC cycles %d, parity chunks %d: the run never exercised GC or closed a stripe", st.GCCycles, st.ParityChunks)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		if ns := s.Shard(i).sinkNS; ns != 0 {
			t.Fatalf("shard %d: %d ns blocked on a device through Close", i, ns)
		}
	}
	var prom bytes.Buffer
	if err := ts.Registry.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "proto_device_") {
		t.Fatalf("served engine registered a device family:\n%s", prom.String())
	}
}
