package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"time"

	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/server/wire"
	"adapt/internal/sim"
)

// A rung is a layer that has no seam to decorate: its public functions
// are called directly, timed, on the workload's own inputs — the frame
// mix for the codec, the write sequence for the log and its file layer.

// rungOps is how many draws of volume 0's stream a rung replays.
const rungOps = 20000

// rungDraws returns the first n data ops of volume 0's stream.
func rungDraws(sp *spec, seed uint64, volBlocks int64, n int) []op {
	g := newGenerator(sp, seed, 0, volBlocks)
	ops := make([]op, 0, n)
	for len(ops) < n {
		if o := g.next(); o.kind != opFlush {
			ops = append(ops, o)
		}
	}
	return ops
}

// wireRung times the bespoke codec on the workload's frame mix: every
// request is encoded and decoded as the client and server do, and so is
// the response it would draw. It returns the mean ns per frame of each
// direction, the median of a few passes.
func wireRung(ops []op, pool *payloadPool) (encodeNS, decodeNS float64, err error) {
	reqs := make([]wire.Request, len(ops))
	resps := make([]wire.Response, len(ops))
	var payload []byte
	for i, o := range ops {
		first, past := o.blocks()
		reqs[i] = wire.Request{Op: wire.OpRead, ID: uint64(i + 1), LBA: uint64(first), Count: uint32(past - first)}
		resps[i] = wire.Response{Op: wire.OpRead, ID: uint64(i + 1)}
		payload = pool.fill(payload, int(past-first)*blockBytes, uint64(i))
		if o.kind == opWrite {
			reqs[i].Op, resps[i].Op = wire.OpWrite, wire.OpWrite
			reqs[i].Payload = append([]byte(nil), payload...)
		} else {
			resps[i].Count = reqs[i].Count
			resps[i].Payload = append([]byte(nil), payload...)
		}
	}
	// The decode passes read one long stream of every frame; the encode
	// passes reuse one frame buffer, as the client and the server do.
	var reqBytes, respBytes []byte
	var reqEnds []int
	for i := range reqs {
		reqBytes = wire.AppendRequest(reqBytes, &reqs[i])
		reqEnds = append(reqEnds, len(reqBytes))
		respBytes = wire.AppendResponse(respBytes, &resps[i])
	}
	const passes = 5
	var enc, dec []float64
	frames := float64(2 * len(ops))
	for p := 0; p < passes; p++ {
		var frame []byte
		t0 := time.Now()
		for i := range reqs {
			frame = wire.AppendRequest(frame[:0], &reqs[i])
			frame = wire.AppendResponse(frame[:0], &resps[i])
		}
		enc = append(enc, float64(time.Since(t0))/frames)

		br := bufio.NewReaderSize(bytes.NewReader(respBytes), 64<<10)
		t0 = time.Now()
		start := 0
		for _, end := range reqEnds {
			if _, err := wire.DecodeRequest(reqBytes[start+4 : end]); err != nil {
				return 0, 0, fmt.Errorf("wire rung: %w", err)
			}
			start = end
		}
		for range resps {
			if _, err := wire.ReadResponse(br); err != nil {
				return 0, 0, fmt.Errorf("wire rung: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(t0))/frames)
	}
	return median(enc), median(dec), nil
}

// timedLog times every call a store makes into its durable log.
type timedLog struct {
	inner    lss.DurableLog
	appends  int64
	appendNS int64
	sealNS   []float64
}

func (t *timedLog) OpenSegment(id int, g lss.GroupID, born sim.WriteClock) error {
	return t.inner.OpenSegment(id, g, born)
}

func (t *timedLog) AppendChunk(c lss.DurableChunk) error {
	t0 := time.Now()
	err := t.inner.AppendChunk(c)
	t.appendNS += int64(time.Since(t0))
	t.appends++
	return err
}

// SealSegment is where SyncOnSeal pays its fsync.
func (t *timedLog) SealSegment(id int, sealedW sim.WriteClock) error {
	t0 := time.Now()
	err := t.inner.SealSegment(id, sealedW)
	t.sealNS = append(t.sealNS, float64(time.Since(t0)))
	return err
}

func (t *timedLog) FreeSegment(id int) error { return t.inner.FreeSegment(id) }

func (t *timedLog) Checkpoint(w sim.WriteClock, seq int64, now sim.Time) error {
	return t.inner.Checkpoint(w, seq, now)
}

// replay is what one pass of the write sequence through a bare store
// cost.
type replay struct {
	writeNS, userBlocks int64
	gcNS, gcBlocks      int64
}

// replayStore fills a bare lss store at one shard's geometry, then
// replays the ops' writes through Write, driving GC through GCStep
// between writes (BackgroundGC hands the cycle to the caller, which is
// what lets append and relocation be timed apart). Simulated time
// advances by gap per op, the pace the traced run saw.
func replayStore(cfg lss.Config, ops []op, gap time.Duration, durable lss.DurableLog) (replay, *lss.Store, error) {
	var r replay
	cfg.BackgroundGC = true
	pol, err := harness.BuildPolicy(harness.PolicyADAPT, cfg)
	if err != nil {
		return r, nil, err
	}
	st := lss.New(cfg, pol, lss.Deps{Durable: durable})
	now := sim.Time(0)
	gc := func() {
		for st.GCNeeded() {
			st.GCStep(64)
		}
	}
	for lba := int64(0); lba < cfg.UserBlocks; lba += prefillBlocks {
		now += sim.Time(gap)
		if err := st.Write(lba, int(min(prefillBlocks, cfg.UserBlocks-lba)), now); err != nil {
			return r, nil, err
		}
		gc()
	}
	m := st.Metrics()
	user0, gc0 := m.UserBlocks, m.GCBlocks
	for _, o := range ops {
		now += sim.Time(gap)
		if o.kind != opWrite {
			continue
		}
		first, past := o.blocks()
		t0 := time.Now()
		err := st.Write(first, int(past-first), now)
		t1 := time.Now()
		gc()
		r.writeNS += int64(t1.Sub(t0))
		r.gcNS += int64(time.Since(t1))
		if err != nil {
			return r, nil, err
		}
	}
	r.userBlocks, r.gcBlocks = m.UserBlocks-user0, m.GCBlocks-gc0
	return r, st, st.DurableErr()
}

// rungResult is every rung's numbers.
type rungResult struct {
	encodeNS, decodeNS float64
	appendNSPerBlock   float64
	gcNSPerBlockMoved  float64
	segAppendUSMean    float64
	sealFsyncP50       float64
	sealFsyncP99       float64
	recoverMS          float64
}

// runRungs runs the codec, log and file-layer rungs for one workload.
// dir is scratch space on the same filesystem as the data directory.
func runRungs(sp *spec, seed uint64, cfg lss.Config, gap time.Duration, dir string, n int) (rungResult, error) {
	var out rungResult
	ops := rungDraws(sp, seed, cfg.UserBlocks, n)
	var err error
	if !sp.nbd {
		// NBD traffic never meets the bespoke codec.
		if out.encodeNS, out.decodeNS, err = wireRung(ops, newPayloadPool(seed)); err != nil {
			return out, err
		}
	}

	bare, _, err := replayStore(cfg, ops, gap, nil)
	if err != nil {
		return out, fmt.Errorf("lss rung: %w", err)
	}
	out.appendNSPerBlock = float64(bare.writeNS) / float64(bare.userBlocks)
	if bare.gcBlocks > 0 {
		out.gcNSPerBlockMoved = float64(bare.gcNS) / float64(bare.gcBlocks)
	}

	segDir, err := os.MkdirTemp(dir, "rung-seg-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(segDir)
	opts := segfile.Options{Dir: segDir, Sync: segfile.SyncOnSeal, Geometry: cfg.GeometryDefaults()}
	sf, err := segfile.Open(opts)
	if err != nil {
		return out, fmt.Errorf("segfile rung: %w", err)
	}
	tl := &timedLog{inner: sf}
	_, live, err := replayStore(cfg, ops, gap, tl)
	if err == nil {
		live.Drain(live.Now())
		err = sf.Close()
	}
	if err != nil {
		return out, fmt.Errorf("segfile rung: %w", err)
	}
	out.segAppendUSMean = float64(tl.appendNS) / float64(tl.appends) / 1e3
	seals := sortedCopy(tl.sealNS)
	out.sealFsyncP50, out.sealFsyncP99 = quantile(seals, 0.5)/1e3, quantile(seals, 0.99)/1e3

	t0 := time.Now()
	sf2, err := segfile.Open(opts)
	if err != nil {
		return out, fmt.Errorf("segfile rung reopen: %w", err)
	}
	defer sf2.Close()
	rcfg := cfg
	rcfg.BackgroundGC = true
	pol, err := harness.BuildPolicy(harness.PolicyADAPT, rcfg)
	if err != nil {
		return out, err
	}
	_, rs, err := sf2.Recover(rcfg, pol)
	if err != nil {
		return out, fmt.Errorf("segfile rung recover: %w", err)
	}
	out.recoverMS = float64(time.Since(t0)) / 1e6
	if rs.Blocks != cfg.UserBlocks {
		return out, fmt.Errorf("segfile rung: recovered %d live blocks, wrote %d", rs.Blocks, cfg.UserBlocks)
	}
	return out, nil
}
