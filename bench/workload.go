package main

import (
	"encoding/binary"
	"hash/fnv"

	"adapt/internal/sim"
	"adapt/internal/workload"
)

const blockBytes = 4096

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFlush
)

// op is one generated request: a byte span of one volume.
type op struct {
	kind opKind
	off  int64
	n    int
}

// blocks returns the covering block range [first, past) of the span —
// the granularity at which the server's NBD read-modify-write touches
// bytes, hence the granularity of the in-flight conflict check.
func (o op) blocks() (first, past int64) {
	return o.off / blockBytes, (o.off + int64(o.n) + blockBytes - 1) / blockBytes
}

// sizeShare is one entry of a request-size mix: blocks per op and the
// cumulative probability up to and including this size.
type sizeShare struct {
	blocks int
	cum    float64
}

// spec is one workload: a frontend and a traffic mix. The why strings
// are the record of what each workload is for; BENCHMARK.json repeats
// them.
type spec struct {
	name      string
	why       string
	nbd       bool
	writeFrac float64
	sizes     []sizeShare
	// slotBlocks is the address granularity popularity is drawn over: an
	// op starts on a slot boundary (before any unaligned shift).
	slotBlocks int
	// theta is the zipfian skew over slots; 0 is uniform.
	theta float64
	// unalignedFrac of reads and writes are shifted to a byte offset
	// inside their first block (NBD only: the wire addresses blocks).
	unalignedFrac float64
	// flushEvery issues one FLUSH per this many ops (0: none).
	flushEvery int
	// warmupOps is the fixed, unmeasured op count run after prefill so
	// GC is cycling and caches are warm before the clock starts.
	warmupOps int
	// waOps is the fixed count of measured ops eff_wa is taken over:
	// sized so that this class of host reaches it within the 20 s time
	// box even in its slow minutes.
	waOps int
}

var specs = []spec{
	{
		name: "small-write",
		why: "90/10 write/read, 4 KiB, zipf 0.99 over the wire: sub-chunk writes drive group commit, SLA padding, " +
			"ADAPT placement and aggregation, steady GC and both fsync domains.",
		writeFrac: 0.9, sizes: []sizeShare{{1, 1}}, slotBlocks: 1, theta: 0.99, warmupOps: 20000, waOps: 120000,
	},
	{
		name: "chunk-churn",
		why: "80/20 write/read of whole 64 KiB chunks, uniform, over the wire: no padding or aggregation, so ADAPT is " +
			"bypassed while payload copy, lss append, GC relocation and file bandwidth dominate.",
		writeFrac: 0.8, sizes: []sizeShare{{16, 1}}, slotBlocks: 16, theta: 0, warmupOps: 4000, waOps: 40000,
	},
	{
		name: "read-mostly",
		why: "95/5 read/write, 4 KiB, zipf 0.99 over the wire: highest frame rate with least engine work, so codec, " +
			"admission, RAM-plane copy and allocations dominate; a write-path gain must leave it flat.",
		writeFrac: 0.05, sizes: []sizeShare{{1, 1}}, slotBlocks: 1, theta: 0.99, warmupOps: 60000, waOps: 400000,
	},
	{
		name: "nbd-mixed",
		why: "50/50 over NBD, sizes 4/16/64 KiB, 25% unaligned, FLUSH per 512 ops, zipf 0.9: same backend through the " +
			"NBD proto, widen/slice reads, RMW mutex and barrier; a read gain that costs writes shows.",
		nbd: true, writeFrac: 0.5, sizes: []sizeShare{{1, 0.5}, {4, 0.8}, {16, 1}}, slotBlocks: 1, theta: 0.9,
		unalignedFrac: 0.25, flushEvery: 512, warmupOps: 10000, waOps: 100000,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// generator draws one volume's op stream. The stream of draws is a pure
// function of (seed, workload, volume); which draws are skipped for
// conflicting with an in-flight op depends on timing.
type generator struct {
	sp       *spec
	rng      *sim.RNG
	zipf     *workload.Zipf
	volBytes int64
	drawn    int
}

func newGenerator(sp *spec, seed uint64, vol int, volBlocks int64) *generator {
	h := fnv.New64a()
	h.Write([]byte(sp.name))
	rng := sim.NewRNG(seed*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(vol+1)<<32)
	return &generator{
		sp:       sp,
		rng:      rng,
		zipf:     workload.NewZipf(rng.Split(), volBlocks/int64(sp.slotBlocks), sp.theta, true),
		volBytes: volBlocks * blockBytes,
	}
}

func (g *generator) next() op {
	g.drawn++
	if g.sp.flushEvery > 0 && g.drawn%g.sp.flushEvery == 0 {
		return op{kind: opFlush}
	}
	o := op{kind: opRead}
	if g.rng.Float64() < g.sp.writeFrac {
		o.kind = opWrite
	}
	u := g.rng.Float64()
	blocks := g.sp.sizes[len(g.sp.sizes)-1].blocks
	for _, s := range g.sp.sizes {
		if u < s.cum {
			blocks = s.blocks
			break
		}
	}
	o.n = blocks * blockBytes
	o.off = g.zipf.Next() * int64(g.sp.slotBlocks) * blockBytes
	if g.sp.unalignedFrac > 0 && g.rng.Float64() < g.sp.unalignedFrac {
		o.off += 1 + g.rng.Int63n(blockBytes-1)
	}
	if o.off+int64(o.n) > g.volBytes {
		o.off = g.volBytes - int64(o.n)
	}
	return o
}

// payloadPool is seed-derived random bytes writes slice their payloads
// from; fill stamps each block-sized piece with the op number so a
// stale or misplaced block can never compare equal.
type payloadPool struct{ bytes []byte }

const poolBytes = 4 << 20

func newPayloadPool(seed uint64) *payloadPool {
	rng := sim.NewRNG(seed ^ 0x5eedb10c)
	p := make([]byte, poolBytes)
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
	return &payloadPool{bytes: p}
}

// fill writes n payload bytes for op number seq into dst[:n].
func (p *payloadPool) fill(dst []byte, n int, seq uint64) []byte {
	start := int(seq*blockBytes) % (len(p.bytes) - n)
	dst = append(dst[:0], p.bytes[start:start+n]...)
	for i := 0; i+8 <= n; i += blockBytes {
		binary.LittleEndian.PutUint64(dst[i:], seq)
	}
	return dst
}
