package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"

	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/server"
	"adapt/internal/server/wire"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// This file holds the timing decorators the traced run installs on the
// seams adaptserve's wiring already exposes: the accepted net.Conn, the
// prototype.Ingest the server drives, the lss.Policy each shard's store
// consults, and the server.VolumeBackend the NBD frontend rides. With
// the recorder off each one is a pass-through (one atomic load).

// ---- accepted connections ----

// tracedListener decorates the connections it accepts while the
// recorder is on; connections accepted while it is off are returned
// untouched, so the untraced phases pay nothing at all here.
type tracedListener struct {
	net.Listener
	rec *recorder
	nbd bool
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.rec.on() {
		return c, err
	}
	tc := &tracedConn{Conn: c, rec: l.rec, pending: make(map[uint64]span)}
	if l.nbd {
		tc.in = framer{need: 4, header: tc.nbdIn}
		tc.out = framer{need: nbdGreetingLen, header: tc.nbdOut, end: tc.finish}
	} else {
		tc.in = framer{need: 4 + wireReqHeaderLen, header: tc.wireIn}
		tc.out = framer{need: 4 + wireRespHeaderLen, header: tc.wireOut, end: tc.finish}
	}
	tc.in.end = tc.arrived
	return tc, nil
}

// Header sizes and opcodes of the bespoke wire protocol (the sizes
// exclude the u32 length prefix).
const (
	wireReqHeaderLen  = wire.ReqHeaderLen
	wireRespHeaderLen = wire.RespHeaderLen
	wireOpRead        = byte(wire.OpRead)
	wireOpWrite       = byte(wire.OpWrite)
)

// framer follows one direction of a connection's byte stream: it
// collects need header bytes, hands them to header (which says how many
// payload bytes follow and may change need for the next header), skips
// the payload, and calls end when the frame's last byte has passed.
type framer struct {
	buf    []byte
	need   int
	skip   int
	first  int64 // when the current frame's first byte passed
	header func(hdr []byte) (skip int, frame bool)
	end    func(first, last int64)
	frame  bool // the current header opens a frame end should see
}

func (f *framer) feed(p []byte, now int64) {
	for len(p) > 0 {
		if f.skip > 0 {
			n := min(f.skip, len(p))
			p = p[n:]
			f.skip -= n
			if f.skip == 0 && f.frame {
				f.end(f.first, now)
			}
			continue
		}
		if len(f.buf) == 0 {
			f.first = now
		}
		n := min(f.need-len(f.buf), len(p))
		f.buf = append(f.buf, p[:n]...)
		p = p[n:]
		if len(f.buf) < f.need {
			return
		}
		f.skip, f.frame = f.header(f.buf)
		f.buf = f.buf[:0]
		if f.skip == 0 && f.frame {
			f.end(f.first, now)
		}
	}
}

// tracedConn times each request's residence: from the Read that
// returned its first byte to the Write that carried its last response
// byte. It parses only the frame headers.
type tracedConn struct {
	net.Conn
	rec *recorder

	in, out framer
	// Parser state: the request being read, the reply being written,
	// and the NBD handshake position of each direction.
	cur              span
	curID            uint64
	nbdInState       int
	nbdOutState      int
	nbdOpt, nbdRepTy uint32

	mu      sync.Mutex // in runs on the reader goroutine, out on the writer
	pending map[uint64]span
	vol     int16
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.feed(p[:n], c.rec.now())
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.feed(p[:n], c.rec.now())
	}
	return n, err
}

// arrived files the request just read as pending.
func (c *tracedConn) arrived(first, _ int64) {
	c.cur.start = first
	c.mu.Lock()
	c.pending[c.cur.req] = c.cur
	c.mu.Unlock()
	c.rec.frames.Add(1)
}

// finish closes the pending request whose reply just left.
func (c *tracedConn) finish(_, last int64) {
	c.mu.Lock()
	s, ok := c.pending[c.curID]
	delete(c.pending, c.curID)
	c.mu.Unlock()
	c.rec.frames.Add(1)
	if ok {
		s.end = last
		c.rec.add(s)
	}
}

func (c *tracedConn) wireIn(h []byte) (int, bool) {
	length := int(binary.BigEndian.Uint32(h[0:4]))
	h = h[4:]
	op := h[1]
	c.cur = span{kind: kindRequest, vol: -1, req: binary.BigEndian.Uint64(h[4:12]), write: op == wireOpWrite}
	if op == wireOpRead || op == wireOpWrite {
		c.cur.vol = int16(binary.BigEndian.Uint32(h[12:16]))
		c.cur.first = int32(binary.BigEndian.Uint64(h[16:24]))
		c.cur.past = c.cur.first + int32(binary.BigEndian.Uint32(h[24:28]))
	}
	return length - wireReqHeaderLen, true
}

func (c *tracedConn) wireOut(h []byte) (int, bool) {
	length := int(binary.BigEndian.Uint32(h[0:4]))
	c.curID = binary.BigEndian.Uint64(h[8:16])
	return length - wireRespHeaderLen, true
}

// NBD stream positions. The parser follows exactly the handshake the
// bench's own client speaks: client flags, then NBD_OPT_GO.
const (
	nbdInFlags = iota
	nbdInOptHeader
	nbdInOptData
	nbdInRequest
)

const (
	nbdOutGreeting = iota
	nbdOutReplyHeader
	nbdOutReplyData
	nbdOutReply
)

func (c *tracedConn) nbdIn(h []byte) (int, bool) {
	switch c.nbdInState {
	case nbdInFlags:
		c.nbdInState, c.in.need = nbdInOptHeader, 16
	case nbdInOptHeader:
		c.nbdOpt = binary.BigEndian.Uint32(h[8:12])
		c.nbdInState, c.in.need = nbdInOptData, int(binary.BigEndian.Uint32(h[12:16]))
	case nbdInOptData:
		c.nbdInState, c.in.need = nbdInOptHeader, 16
		if c.nbdOpt == nbdOptGo {
			name := string(h[4 : 4+binary.BigEndian.Uint32(h[0:4])])
			var v int
			if _, err := fmt.Sscanf(strings.TrimPrefix(name, "vol"), "%d", &v); err == nil {
				c.vol = int16(v)
			}
			c.nbdInState, c.in.need = nbdInRequest, nbdReqHeaderLen
		}
	case nbdInRequest:
		cmd := binary.BigEndian.Uint16(h[6:8])
		off := binary.BigEndian.Uint64(h[16:24])
		length := binary.BigEndian.Uint32(h[24:28])
		c.cur = span{kind: kindRequest, vol: -1, req: binary.BigEndian.Uint64(h[8:16]), write: cmd == nbdCmdWrite}
		if cmd == nbdCmdRead || cmd == nbdCmdWrite {
			f, p := op{off: int64(off), n: int(length)}.blocks()
			c.cur.vol, c.cur.first, c.cur.past = c.vol, int32(f), int32(p)
		}
		if cmd == nbdCmdRead {
			// The reply header does not say how much data follows it;
			// remember it for the out direction.
			c.cur.call = int64(length)
		}
		if cmd == nbdCmdWrite {
			return int(length), true
		}
		return 0, cmd != nbdCmdDisc
	}
	return 0, false
}

func (c *tracedConn) nbdOut(h []byte) (int, bool) {
	switch c.nbdOutState {
	case nbdOutGreeting:
		c.nbdOutState, c.out.need = nbdOutReplyHeader, nbdOptReplyLen
	case nbdOutReplyHeader:
		opt := binary.BigEndian.Uint32(h[8:12])
		typ := binary.BigEndian.Uint32(h[12:16])
		n := int(binary.BigEndian.Uint32(h[16:20]))
		if opt == nbdOptGo && typ == nbdRepAck {
			c.nbdOutState, c.out.need = nbdOutReply, nbdReplyLen
		} else if n > 0 {
			c.nbdOutState, c.out.need = nbdOutReplyData, n
		}
	case nbdOutReplyData:
		c.nbdOutState, c.out.need = nbdOutReplyHeader, nbdOptReplyLen
	case nbdOutReply:
		errno := binary.BigEndian.Uint32(h[4:8])
		c.curID = binary.BigEndian.Uint64(h[8:16])
		c.mu.Lock()
		readLen := c.pending[c.curID].call
		c.mu.Unlock()
		if errno != 0 {
			readLen = 0
		}
		return int(readLen), true
	}
	return 0, false
}

// ---- prototype.Ingest ----

// tracedIngest times every data call the server makes into the engine.
// The untimed variants delegate to the engine's timed ones so the lock
// wait and sink time are known either way.
type tracedIngest struct {
	prototype.Ingest
	rec       *recorder
	volBlocks int64
}

func (t *tracedIngest) record(kind spanKind, ops []prototype.BatchWrite, start int64, tm prototype.OpTiming) {
	end := t.rec.now()
	call := t.rec.engineCalls.Add(1)
	for _, o := range ops {
		first := o.LBA % t.volBlocks
		t.rec.add(span{
			kind: kind, vol: int16(o.LBA / t.volBlocks), first: int32(first), past: int32(first) + int32(o.Blocks),
			start: start, end: end, call: call,
			lockWaitNS: int64(tm.Locked - tm.Enter), sinkNS: tm.SinkNS,
		})
	}
}

func (t *tracedIngest) WriteBatchTimed(ops []prototype.BatchWrite) (prototype.OpTiming, error) {
	if !t.rec.on() {
		return t.Ingest.WriteBatchTimed(ops)
	}
	start := t.rec.now()
	tm, err := t.Ingest.WriteBatchTimed(ops)
	t.record(kindEngineWrite, ops, start, tm)
	return tm, err
}

func (t *tracedIngest) WriteBatch(ops []prototype.BatchWrite) error {
	_, err := t.WriteBatchTimed(ops)
	return err
}

func (t *tracedIngest) WriteTimed(lba int64, blocks int) (prototype.OpTiming, error) {
	if !t.rec.on() {
		return t.Ingest.WriteTimed(lba, blocks)
	}
	start := t.rec.now()
	tm, err := t.Ingest.WriteTimed(lba, blocks)
	t.record(kindEngineWrite, []prototype.BatchWrite{{LBA: lba, Blocks: blocks}}, start, tm)
	return tm, err
}

func (t *tracedIngest) Write(lba int64, blocks int) error {
	_, err := t.WriteTimed(lba, blocks)
	return err
}

func (t *tracedIngest) ReadTimed(lba int64, blocks int) (prototype.OpTiming, error) {
	if !t.rec.on() {
		return t.Ingest.ReadTimed(lba, blocks)
	}
	start := t.rec.now()
	tm, err := t.Ingest.ReadTimed(lba, blocks)
	t.record(kindEngineRead, []prototype.BatchWrite{{LBA: lba, Blocks: blocks}}, start, tm)
	return tm, err
}

func (t *tracedIngest) Read(lba int64, blocks int) error {
	_, err := t.ReadTimed(lba, blocks)
	return err
}

func (t *tracedIngest) TrimTimed(lba int64, blocks int) (prototype.OpTiming, error) {
	if !t.rec.on() {
		return t.Ingest.TrimTimed(lba, blocks)
	}
	start := t.rec.now()
	tm, err := t.Ingest.TrimTimed(lba, blocks)
	t.record(kindEngineTrim, []prototype.BatchWrite{{LBA: lba, Blocks: blocks}}, start, tm)
	return tm, err
}

func (t *tracedIngest) Trim(lba int64, blocks int) error {
	_, err := t.TrimTimed(lba, blocks)
	return err
}

// ---- lss.Policy ----

// fullPolicy is everything the store and the engine type-assert a
// placement policy for. ADAPT implements all of it; a wrapper that
// forwarded only lss.Policy would silently switch cross-group
// aggregation (Advisor) off and the traced run would measure a
// different program.
type fullPolicy interface {
	lss.Policy
	lss.Advisor
	lss.SegmentObserver
	prototype.FootprintReporter
	SetTelemetry(*telemetry.Set)
}

// tracedPolicy times the placement decisions. The untimed extensions
// forward through the embedded interface.
type tracedPolicy struct {
	fullPolicy
	rec *recorder
}

// wrapPolicy decorates p, refusing a policy that lacks any of the
// optional extensions: the wrapper would then claim hooks the policy
// does not have and change which ones the store wires.
func wrapPolicy(p lss.Policy, rec *recorder) (lss.Policy, error) {
	full, ok := p.(fullPolicy)
	if !ok {
		return nil, fmt.Errorf("bench: policy %s lacks one of Advisor, SegmentObserver, FootprintReporter, SetTelemetry; "+
			"the timing wrapper cannot forward what is not there", p.Name())
	}
	return &tracedPolicy{fullPolicy: full, rec: rec}, nil
}

func (t *tracedPolicy) PlaceUser(lba int64, now sim.Time, w sim.WriteClock) lss.GroupID {
	if !t.rec.on() {
		return t.fullPolicy.PlaceUser(lba, now, w)
	}
	t0 := t.rec.now()
	g := t.fullPolicy.PlaceUser(lba, now, w)
	t.rec.policy.placeUserNS.Add(t.rec.now() - t0)
	t.rec.policy.placeUserCalls.Add(1)
	return g
}

func (t *tracedPolicy) PlaceGC(lba int64, from lss.GroupID, born, sealed, w sim.WriteClock) lss.GroupID {
	if !t.rec.on() {
		return t.fullPolicy.PlaceGC(lba, from, born, sealed, w)
	}
	t0 := t.rec.now()
	g := t.fullPolicy.PlaceGC(lba, from, born, sealed, w)
	t.rec.policy.placeGCNS.Add(t.rec.now() - t0)
	t.rec.policy.placeGCCalls.Add(1)
	return g
}

func (t *tracedPolicy) OnChunkTimeout(g lss.GroupID, now sim.Time, groups []lss.GroupSnapshot) lss.TimeoutAction {
	if !t.rec.on() {
		return t.fullPolicy.OnChunkTimeout(g, now, groups)
	}
	t0 := t.rec.now()
	a := t.fullPolicy.OnChunkTimeout(g, now, groups)
	t.rec.policy.timeoutNS.Add(t.rec.now() - t0)
	t.rec.policy.timeoutCalls.Add(1)
	return a
}

// ---- server.VolumeBackend ----

// tracedBackend times the block ops the NBD frontend issues. A write's
// span ends at its done callback, when the group commit that carried it
// has been fsync'd.
type tracedBackend struct {
	server.VolumeBackend
	rec *recorder
}

func (t *tracedBackend) span(kind spanKind, vol uint32, lba int64, blocks int, start int64) {
	t.rec.backendCalls.Add(1)
	s := span{kind: kind, vol: int16(vol), first: int32(lba), past: int32(lba) + int32(blocks), start: start, end: t.rec.now()}
	if kind == kindBackendFlush {
		s.vol = -1
	}
	t.rec.add(s)
}

func (t *tracedBackend) ReadBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) ([]byte, error) {
	if !t.rec.on() {
		return t.VolumeBackend.ReadBlocks(vol, lba, blocks, sp)
	}
	start := t.rec.now()
	b, err := t.VolumeBackend.ReadBlocks(vol, lba, blocks, sp)
	t.span(kindBackendRead, vol, lba, blocks, start)
	return b, err
}

func (t *tracedBackend) WriteBlocks(vol uint32, lba int64, payload []byte, sp *telemetry.Span, done func(error)) {
	if !t.rec.on() {
		t.VolumeBackend.WriteBlocks(vol, lba, payload, sp, done)
		return
	}
	start := t.rec.now()
	blocks := len(payload) / t.BlockBytes()
	t.VolumeBackend.WriteBlocks(vol, lba, payload, sp, func(err error) {
		t.span(kindBackendWrite, vol, lba, blocks, start)
		done(err)
	})
}

func (t *tracedBackend) Flush(vol uint32, sp *telemetry.Span) error {
	if !t.rec.on() {
		return t.VolumeBackend.Flush(vol, sp)
	}
	start := t.rec.now()
	err := t.VolumeBackend.Flush(vol, sp)
	t.span(kindBackendFlush, vol, 0, 0, start)
	return err
}
