package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// tracedPhase is one stretch of the traced run's measured time. The
// traced stretch sits between two untraced ones of half its length, so a
// drift in speed over the run (the store ages, GC deepens, the host
// slows) cancels out of the overhead estimate instead of being booked to
// tracing.
type tracedPhase struct {
	traced bool
	share  float64
}

var tracedPhases = []tracedPhase{{false, 0.25}, {true, 0.5}, {false, 0.25}}

// tracedWindows is how many windows each stretch is cut into.
const tracedWindows = 5

// tracedRun is everything the traced run observed; metrics turns it into
// the per-layer numbers.
type tracedRun struct {
	sp      *spec
	rec     *recorder
	spans   []span
	self    []int64
	orphans int

	traced     *phaseResult // the generator's view of the traced stretch
	tracedSpan int64
	stat       statDelta // STAT counters over the traced stretch
	mallocs    uint64    // process-wide, generator included
	tracedRate float64
	plainRates []float64 // the untraced stretches before and after
	plainWA    []float64

	rungs   rungResult
	restart time.Duration
}

// runTraced produces the per-layer numbers: the same generator against
// an in-process copy of adaptserve's wiring with timing decorators on
// its seams, plus the rungs. End-to-end metrics are never taken here.
func runTraced(env *environment, sp *spec, seed uint64, seconds int) (*runOutput, error) {
	work, err := os.MkdirTemp(env.workRoot, "run-")
	if err != nil {
		return nil, err
	}
	ownDir(work)
	defer os.RemoveAll(work)
	dataDir := filepath.Join(work, "data")
	volBlocks := int64(userBlocks / volumes)

	r := &tracedRun{sp: sp, rec: newRecorder()}
	p, err := startInproc(dataDir, userBlocks, sp.nbd, r.rec)
	if err != nil {
		return nil, err
	}
	var recv atomic.Int64
	l, err := connect(p.ep, sp, seed, volBlocks, nil, &recv)
	if err != nil {
		return nil, err
	}
	defer func() { l.close() }()
	gens, warm, err := prefillAndWarm(l, sp, seed, volBlocks)
	if err != nil {
		return nil, err
	}
	out := &runOutput{Attempted: warm.attempted}

	for _, ph := range tracedPhases {
		// Connections are decorated at accept time, so each phase dials
		// afresh with the recorder already in the state it wants.
		shadows := l.shadows()
		l.close()
		r.rec.enabled.Store(ph.traced)
		if l, err = connect(p.ep, sp, seed, volBlocks, shadows, &recv); err != nil {
			return nil, err
		}
		stat0, err := statsOf(p.ep.wire, &recv)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		span := time.Duration(float64(seconds) * ph.share * float64(time.Second))
		stop := deadlineStop(span)
		res := l.run(l.sources(func(v int) source { return workloadSource(gens[v], stop) }))
		runtime.ReadMemStats(&m1)
		stat1, err := statsOf(p.ep.wire, &recv)
		if err != nil {
			return nil, err
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		if res.firstErr != nil {
			fmt.Fprintln(os.Stderr, "bench: first failure in a traced-run phase:", res.firstErr)
		}
		rate := median(windowRates(res.ends, int64(span), tracedWindows))
		if ph.traced {
			r.traced, r.tracedSpan, r.tracedRate = res, int64(span), rate
			r.stat, r.mallocs = delta(stat1, stat0), m1.Mallocs-m0.Mallocs
		} else {
			r.plainRates = append(r.plainRates, rate)
			r.plainWA = append(r.plainWA, delta(stat1, stat0).effWA())
		}
	}
	r.rec.enabled.Store(false)
	shadows := l.shadows()
	l.close()

	// Abandon the engine as SIGKILL would, then let the real binary
	// recover the directory: the restart figure and the read-back cover
	// the roll-forward path, not a clean shutdown's checkpoint.
	if err := p.stop(false); err != nil {
		return nil, err
	}
	back, restart, err := restartAndReadBack(env, sp, seed, dataDir, shadows, &recv)
	if err != nil {
		return nil, err
	}
	r.restart = restart
	out.Attempted += back.attempted
	out.Failed += back.failed

	r.spans = r.rec.recorded()
	r.orphans = link(r.spans)
	r.self = selfTimes(r.spans)
	if err := writeNDJSON(filepath.Join(env.workRoot, "spans-"+sp.name+".ndjson"), r.spans); err != nil {
		return nil, err
	}
	// The rungs replay at the pace the traced stretch ran on one volume.
	gap := time.Duration(float64(r.traced.elapsed) * volumes / float64(len(r.traced.ends)))
	if r.rungs, err = runRungs(sp, seed, p.shardCfg, gap, work, rungOps); err != nil {
		return nil, err
	}

	out.Metrics = r.metrics()
	out.Correct = out.Failed == 0
	warnSanity(sp, out.Metrics)
	return out, nil
}

// metrics turns the traced stretch's spans, counters and STAT deltas,
// and the rungs, into the per-layer metrics. Every workload reports every
// name; a layer the workload never touches reports 0.
func (r *tracedRun) metrics() map[string]metric {
	var (
		residence           []float64 // per data request
		serverSelf, nbdSelf []float64
		engWrite, engRead   []float64 // per engine call
		lockWait            []float64
		sinkNS, engWriteNS  float64
		requests, rmw       float64
	)
	backendSelf := map[int32]float64{} // request span → Σ self of its backend spans
	hasBackendRead := map[int32]bool{}
	seenCall := map[int64]bool{}
	for i := range r.spans {
		s := &r.spans[i]
		switch {
		case s.kind.isBackend():
			if s.parent >= 0 {
				backendSelf[s.parent] += float64(r.self[i])
				if s.kind == kindBackendRead {
					hasBackendRead[s.parent] = true
				}
			}
		case s.kind.isEngine() && !seenCall[s.call]:
			// A group commit is recorded once per member; count the
			// call once.
			seenCall[s.call] = true
			dur := float64(s.end - s.start)
			lockWait = append(lockWait, float64(s.lockWaitNS))
			if s.kind == kindEngineRead {
				engRead = append(engRead, dur)
			} else {
				engWrite = append(engWrite, dur)
				engWriteNS += dur
				sinkNS += float64(s.sinkNS)
			}
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.kind != kindRequest || s.vol < 0 {
			continue
		}
		requests++
		residence = append(residence, float64(s.end-s.start))
		if r.sp.nbd {
			// Over NBD the request's own time is the nbd package's and
			// the server's is what its backend calls kept for
			// themselves.
			nbdSelf = append(nbdSelf, float64(r.self[i]))
			serverSelf = append(serverSelf, backendSelf[int32(i)])
			if s.write && hasBackendRead[int32(i)] {
				rmw++
			}
		} else {
			serverSelf = append(serverSelf, float64(r.self[i]))
		}
	}

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	us := func(name string, xs []float64, q float64) {
		v := 0.0
		if len(xs) > 0 {
			v = quantile(sortedCopy(xs), q) / 1e3
		}
		set(name, v, "us")
	}
	ratio := func(name string, num, den float64, unit string) {
		v := 0.0
		if den != 0 {
			v = num / den
		}
		set(name, v, unit)
	}
	clientLat := func(name string, c classLat, q float64) {
		per := windowed(c, r.tracedSpan, q, tracedWindows, func(s []float64) float64 { return quantile(s, q) })
		v := 0.0
		if len(per) > 0 {
			v = median(per) / 1e3
		}
		set(name, v, "us")
	}
	d := r.stat
	ops := float64(len(r.traced.ends))
	userBlocks := float64(d["store_user_blocks"])
	pc := &r.rec.policy
	policyCalls := float64(pc.placeUserCalls.Load() + pc.placeGCCalls.Load() + pc.timeoutCalls.Load())
	policyNS := float64(pc.placeUserNS.Load() + pc.placeGCNS.Load() + pc.timeoutNS.Load())
	genLat := append(toFloats(r.traced.reads.lat, 1), toFloats(r.traced.writes.lat, 1)...)

	// The generator's own view of the traced stretch: the absolute
	// figures, which move with the host's speed and so are reported but
	// not gated.
	set("client.ops_s", r.tracedRate, "1/s")
	clientLat("client.write_p50_us", r.traced.writes, 0.5)
	clientLat("client.write_p99_us", r.traced.writes, 0.99)
	clientLat("client.read_p50_us", r.traced.reads, 0.5)
	clientLat("client.read_p99_us", r.traced.reads, 0.99)

	set("wire.encode_ns", r.rungs.encodeNS, "ns")
	set("wire.decode_ns", r.rungs.decodeNS, "ns")
	set("wire.frames", 0, "count")
	if !r.sp.nbd {
		set("wire.frames", float64(r.rec.frames.Load()), "count")
	}

	us("server.residence_us_p50", residence, 0.5)
	us("server.residence_us_p99", residence, 0.99)
	us("server.self_us_p50", serverSelf, 0.5)
	us("server.self_us_p99", serverSelf, 0.99)
	ratio("server.batch_size_mean", float64(d["srv_batched_writes"]), float64(d["srv_batches"]), "count")
	set("server.backpressure", float64(d["srv_backpressure"]), "count")
	ratio("server.allocs_per_op", float64(r.mallocs), ops, "count")
	set("server.restart_ms", float64(r.restart)/1e6, "ms")

	us("nbd.self_us_p50", nbdSelf, 0.5)
	us("nbd.self_us_p99", nbdSelf, 0.99)
	ratio("nbd.backend_calls_per_op", float64(r.rec.backendCalls.Load()), requests, "count")
	ratio("nbd.rmw_frac", rmw, requests, "ratio")

	us("prototype.write_us_p50", engWrite, 0.5)
	us("prototype.write_us_p99", engWrite, 0.99)
	us("prototype.read_us_p50", engRead, 0.5)
	us("prototype.lockwait_us_p99", lockWait, 0.99)
	ratio("prototype.sink_us_mean", sinkNS/1e3, float64(len(engWrite)), "us")
	ratio("prototype.calls_per_op", float64(r.rec.engineCalls.Load()), requests, "count")

	ratio("lss.gc_blocks_per_user_block", float64(d["store_gc_blocks"]), userBlocks, "ratio")
	ratio("lss.padding_blocks_per_user_block", float64(d["store_padding_blocks"]), userBlocks, "ratio")
	set("lss.gc_cycles", float64(d["store_gc_cycles"]), "count")
	set("lss.append_ns_per_block", r.rungs.appendNSPerBlock, "ns")
	set("lss.gc_ns_per_block_moved", r.rungs.gcNSPerBlockMoved, "ns")

	ratio("adaptcore.place_user_ns", float64(pc.placeUserNS.Load()), float64(pc.placeUserCalls.Load()), "ns")
	ratio("adaptcore.place_gc_ns", float64(pc.placeGCNS.Load()), float64(pc.placeGCCalls.Load()), "ns")
	ratio("adaptcore.timeout_ns", float64(pc.timeoutNS.Load()), float64(pc.timeoutCalls.Load()), "ns")
	ratio("adaptcore.calls_per_user_block", policyCalls, userBlocks, "count")
	ratio("adaptcore.time_share", policyNS, engWriteNS, "ratio")

	set("segfile.append_us_mean", r.rungs.segAppendUSMean, "us")
	set("segfile.seal_fsync_us_p50", r.rungs.sealFsyncP50, "us")
	set("segfile.seal_fsync_us_p99", r.rungs.sealFsyncP99, "us")
	set("segfile.recover_ms", r.rungs.recoverMS, "ms")
	ratio("segfile.fsyncs_per_kop", 1000*float64(d["durable_fsyncs"]), ops, "count")
	ratio("segfile.bytes_per_user_byte", float64(d["durable_bytes_written"]), userBlocks*blockBytes, "ratio")

	// Zero while the workloads run default synchronous GC; listed so a
	// later switch to paced GC shows.
	set("gcsched.slices", float64(d["gcsched_slices"]), "count")
	set("gcsched.units", float64(d["gcsched_units"]), "count")

	ratio("bench.trace_overhead_frac", mean(r.plainRates)-r.tracedRate, mean(r.plainRates), "ratio")
	ratio("bench.span_coverage", median(residence), median(genLat), "ratio")
	ratio("bench.span_orphan_frac", float64(r.orphans), float64(len(r.spans)), "ratio")
	set("bench.spans_dropped", float64(r.rec.dropped.Load()), "count")
	set("bench.traced_eff_wa", d.effWA(), "ratio")
	// The decorators must not change what the store does: a wrapper that
	// dropped the Advisor hook would show here as a jump in eff_wa
	// between the traced stretch and the untraced ones around it.
	ratio("bench.traced_eff_wa_shift", d.effWA()-mean(r.plainWA), mean(r.plainWA), "ratio")
	return m
}

// warnSanity checks the relations that hold within one workload's
// traced run; a violation is a warning, not a failure — it says the
// benchmark or the server drifted from what the README describes.
func warnSanity(sp *spec, m map[string]metric) {
	warn := func(format string, a ...any) {
		fmt.Printf("# WARNING %s: "+format+"\n", append([]any{sp.name}, a...)...)
	}
	if sp.nbd {
		if f := m["nbd.rmw_frac"].Value; f < 0.115 || f > 0.135 {
			warn("nbd.rmw_frac = %.4f, expected 0.125 ± 0.01 (half the ops are writes, a quarter unaligned)", f)
		}
	}
	if m["gcsched.slices"].Value != 0 || m["gcsched.units"].Value != 0 {
		warn("gcsched counters moved, but the workloads run default synchronous GC")
	}
	if f := m["bench.span_orphan_frac"].Value; f > 0.001 {
		warn("%.2f%% of engine and backend spans found no parent request", 100*f)
	}
	// eff_wa climbs as the store ages, and not in a straight line, so the
	// stretches differ by up to a fifth with no decorator at fault; only
	// a larger jump is worth a look.
	if f := m["bench.traced_eff_wa_shift"].Value; f < -0.25 || f > 0.25 {
		warn("eff_wa moved by %+.1f%% while the decorators were on; they must not change what the store does", 100*f)
	}
	if n := m["bench.spans_dropped"].Value; n > 0 {
		warn("%.0f spans did not fit the buffer", n)
	}
}

// warnAcross checks the relations between workloads, once a pass has
// traced them all.
func warnAcross(all map[string]map[string]metric) {
	less := func(name, a, b string, share float64) {
		x, y := all[a][name].Value, all[b][name].Value
		if x >= share*y {
			fmt.Fprintf(os.Stderr, "bench: WARNING %s: %.4f on %s is not below %.2f × %.4f on %s\n", name, x, a, share, y, b)
		}
	}
	less("lss.padding_blocks_per_user_block", "chunk-churn", "small-write", 0.1)
	less("segfile.fsyncs_per_kop", "read-mostly", "small-write", 1.0/3)
}
