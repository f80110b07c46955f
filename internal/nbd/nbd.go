// Package nbd exports the server's tenant volumes over the standard
// Network Block Device protocol, so real initiators — the Linux kernel
// via nbd-client, qemu/qemu-nbd, fio's nbd ioengine, or the in-repo
// pure-Go client (nbdtest) — can attach a volume as an ordinary block
// device and drive the ADAPT engine with real kernel I/O streams.
//
// The server implements the newstyle *fixed* handshake (NBD_OPT_LIST,
// NBD_OPT_INFO, NBD_OPT_GO with export name and block-size info, plus
// the legacy NBD_OPT_EXPORT_NAME) and the transmission phase with
// NBD_CMD_READ, WRITE, FLUSH, TRIM, WRITE_ZEROES, and DISC. Each
// tenant volume is one export, named "vol0".."volN-1" (the empty
// default export maps to vol0).
//
// It is a second frontend over the same volume manager as the bespoke
// wire protocol: both ride server.VolumeBackend, so NBD writes
// coalesce into the same per-shard group commits, obey the same
// per-tenant admission bounds (NBD has no backpressure vocabulary, so
// admission blocks instead of rejecting), and inherit the
// fsync-before-ack durability discipline — which is exactly the FUA
// contract, so NBD_FLAG_SEND_FUA is advertised and every acked write
// already satisfies it. Because a flush on any connection forces every
// committer and an ack already implies durability, the export is safe
// for NBD_FLAG_CAN_MULTI_CONN and several connections may share one
// export.
//
// NBD addresses bytes while the engine addresses blocks; the alignment
// layer (align.go) translates, turning ragged request edges into
// read-modify-write cycles the bespoke frontend never needed.
package nbd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/server"
	"adapt/internal/server/wire"
	"adapt/internal/telemetry"
)

// Config describes an NBD frontend.
type Config struct {
	// Backend is the volume manager to export; typically the
	// *server.Server also serving the bespoke protocol.
	Backend server.VolumeBackend
	// MaxRequestBytes bounds one request's payload and is advertised
	// as the maximum block size (default DefaultMaxRequestBytes).
	MaxRequestBytes int
	// WriteTimeout bounds each response write (default 30s; negative
	// disables).
	WriteTimeout time.Duration
	// Telemetry, when set, registers the nbd_* instruments.
	Telemetry *telemetry.Set
}

// metrics bundles the NBD instruments; nil fields are no-ops.
type metrics struct {
	conns      *telemetry.Gauge
	handshakes *telemetry.Counter
	reqs       [7]*telemetry.Counter // indexed by command
	bytesIn    *telemetry.Counter
	bytesOut   *telemetry.Counter
	rmwWrites  *telemetry.Counter
	errors     *telemetry.Counter
}

// Server serves the NBD protocol over one VolumeBackend.
type Server struct {
	cfg Config
	b   server.VolumeBackend
	met metrics

	blockBytes int
	volBlocks  int64
	volumes    int

	// rmw serializes read-modify-write cycles per volume so two
	// unaligned writes to the same block cannot interleave their read
	// and write halves (overlapping *aligned* concurrent writes remain
	// undefined, as on any block device).
	rmw []sync.Mutex

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	drainCh  chan struct{}
	connWG   sync.WaitGroup
}

// New builds an NBD frontend over the backend.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("nbd: nil backend")
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	b := cfg.Backend
	if b.Volumes() < 1 || b.VolumeBlocks() < 1 || b.BlockBytes() < 1 {
		return nil, fmt.Errorf("nbd: backend exports no volumes (%d volumes × %d blocks)",
			b.Volumes(), b.VolumeBlocks())
	}
	if cfg.MaxRequestBytes < b.BlockBytes() {
		return nil, fmt.Errorf("nbd: max request %d bytes below block size %d",
			cfg.MaxRequestBytes, b.BlockBytes())
	}
	s := &Server{
		cfg:        cfg,
		b:          b,
		blockBytes: b.BlockBytes(),
		volBlocks:  b.VolumeBlocks(),
		volumes:    b.Volumes(),
		rmw:        make([]sync.Mutex, b.Volumes()),
		conns:      make(map[net.Conn]struct{}),
		drainCh:    make(chan struct{}),
	}
	if ts := cfg.Telemetry; ts != nil {
		s.met.conns = ts.Registry.NewGauge(telemetry.MetricNBDConns, "Open NBD connections")
		s.met.handshakes = ts.Registry.NewCounter(telemetry.MetricNBDHandshakes,
			"Completed NBD handshakes (transmission phase entered)")
		for _, cmd := range []uint16{cmdRead, cmdWrite, cmdDisc, cmdFlush, cmdTrim, cmdWriteZeroes} {
			s.met.reqs[cmd] = ts.Registry.NewCounter(
				fmt.Sprintf("%s{cmd=\"%s\"}", telemetry.MetricNBDRequestsPrefix, cmdName(cmd)),
				"NBD transmission requests by command")
		}
		s.met.bytesIn = ts.Registry.NewCounter(telemetry.MetricNBDBytesIn, "NBD WRITE payload bytes received")
		s.met.bytesOut = ts.Registry.NewCounter(telemetry.MetricNBDBytesOut, "NBD READ payload bytes sent")
		s.met.rmwWrites = ts.Registry.NewCounter(telemetry.MetricNBDRMWWrites,
			"Unaligned NBD writes served with a read-modify-write cycle")
		s.met.errors = ts.Registry.NewCounter(telemetry.MetricNBDErrors, "NBD error replies")
	}
	return s, nil
}

// ExportName returns the export name of volume vol.
func ExportName(vol int) string { return fmt.Sprintf("vol%d", vol) }

// exportSize is the byte size of every export.
func (s *Server) exportSize() uint64 { return uint64(s.volBlocks) * uint64(s.blockBytes) }

// resolveExport maps an export name to a volume; "" is the default
// export (vol0).
func (s *Server) resolveExport(name string) (uint32, bool) {
	if name == "" {
		return 0, true
	}
	var vol int
	if _, err := fmt.Sscanf(name, "vol%d", &vol); err != nil || name != ExportName(vol) {
		return 0, false
	}
	if vol < 0 || vol >= s.volumes {
		return 0, false
	}
	return uint32(vol), true
}

// transmissionFlags is the per-export flag set: writes, flush, FUA
// (subsumed by fsync-before-ack), trim, write-zeroes, multi-conn.
func (s *Server) transmissionFlags() uint16 {
	return tflagHasFlags | tflagSendFlush | tflagSendFUA |
		tflagSendTrim | tflagSendWriteZeroes | tflagCanMultiConn
}

// Serve accepts NBD connections on ln until Shutdown closes it. It
// returns nil after a graceful Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			// Accepted as Shutdown closed the listener: as in
			// server.Serve, counting it could race Shutdown's Wait.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.met.conns.Add(1)
		go s.serveConn(conn)
	}
}

// Shutdown drains the NBD frontend: in-flight requests complete and
// are acked, then connections close. The backend stays open. Call it
// before draining the backend itself, so pending NBD writes can still
// commit.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.drainCh)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errAborted marks a clean client-requested negotiation end
// (NBD_OPT_ABORT): close the connection without a transmission phase.
var errAborted = errors.New("nbd: negotiation aborted by client")

// serveConn runs one connection: handshake, then transmission.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.met.conns.Add(-1)
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	vol, err := s.handshake(rw{br, conn})
	if err != nil {
		return
	}
	s.met.handshakes.Inc()
	s.transmit(conn, br, vol)
}

// rw pairs the connection's buffered reader with its raw writer for
// the synchronous handshake phase.
type rw struct {
	io.Reader
	io.Writer
}

// handshake runs the newstyle fixed negotiation and returns the volume
// the client committed to (NBD_OPT_GO or NBD_OPT_EXPORT_NAME). It is
// written against io.ReadWriter so the fuzz harness can drive it from
// a byte slice.
func (s *Server) handshake(c io.ReadWriter) (uint32, error) {
	// Greeting: NBDMAGIC, IHAVEOPT, handshake flags.
	greet := appendU64(nil, nbdMagic)
	greet = appendU64(greet, optMagic)
	greet = appendU16(greet, flagFixedNewstyle|flagNoZeroes)
	if _, err := c.Write(greet); err != nil {
		return 0, err
	}
	var cf [4]byte
	if _, err := io.ReadFull(c, cf[:]); err != nil {
		return 0, err
	}
	clientFlags := uint32(cf[0])<<24 | uint32(cf[1])<<16 | uint32(cf[2])<<8 | uint32(cf[3])
	if clientFlags&clientFlagFixedNewstyle == 0 {
		return 0, fmt.Errorf("%w: client rejects fixed newstyle (flags %#x)", ErrProtocol, clientFlags)
	}
	noZeroes := clientFlags&clientFlagNoZeroes != 0
	if clientFlags&^uint32(clientFlagFixedNewstyle|clientFlagNoZeroes) != 0 {
		return 0, fmt.Errorf("%w: unknown client flags %#x", ErrProtocol, clientFlags)
	}

	for {
		opt, err := readOption(c)
		if err != nil {
			return 0, err
		}
		switch opt.typ {
		case optList:
			if len(opt.data) != 0 {
				if err := s.optionErr(c, opt.typ, repErrInvalid, "LIST carries no data"); err != nil {
					return 0, err
				}
				continue
			}
			var buf []byte
			for v := 0; v < s.volumes; v++ {
				name := ExportName(v)
				entry := appendU32(nil, uint32(len(name)))
				entry = append(entry, name...)
				buf = appendOptionReply(buf, opt.typ, repServer, entry)
			}
			buf = appendOptionReply(buf, opt.typ, repAck, nil)
			if _, err := c.Write(buf); err != nil {
				return 0, err
			}

		case optInfo, optGo:
			name, infos, perr := parseInfoPayload(opt.data)
			if perr != nil {
				if err := s.optionErr(c, opt.typ, repErrInvalid, perr.Error()); err != nil {
					return 0, err
				}
				continue
			}
			vol, ok := s.resolveExport(name)
			if !ok {
				if err := s.optionErr(c, opt.typ, repErrUnknown, fmt.Sprintf("no export %q", name)); err != nil {
					return 0, err
				}
				continue
			}
			wantName := false
			for _, inf := range infos {
				if inf == infoName {
					wantName = true
				}
			}
			var buf []byte
			// NBD_INFO_EXPORT is mandatory; block size is always
			// volunteered so initiators learn the preferred (engine
			// block) and maximum (request cap) sizes.
			exp := appendU16(nil, infoExport)
			exp = appendU64(exp, s.exportSize())
			exp = appendU16(exp, s.transmissionFlags())
			buf = appendOptionReply(buf, opt.typ, repInfo, exp)
			bs := appendU16(nil, infoBlockSize)
			bs = appendU32(bs, 1) // minimum: the alignment layer absorbs ragged edges
			bs = appendU32(bs, uint32(s.blockBytes))
			bs = appendU32(bs, uint32(s.cfg.MaxRequestBytes))
			buf = appendOptionReply(buf, opt.typ, repInfo, bs)
			if wantName {
				resolved := ExportName(int(vol))
				nm := appendU16(nil, infoName)
				nm = append(nm, resolved...)
				buf = appendOptionReply(buf, opt.typ, repInfo, nm)
			}
			buf = appendOptionReply(buf, opt.typ, repAck, nil)
			if _, err := c.Write(buf); err != nil {
				return 0, err
			}
			if opt.typ == optGo {
				return vol, nil
			}

		case optExportName:
			// Legacy committal option: no error reply is possible, so an
			// unknown export terminates the session (per spec).
			vol, ok := s.resolveExport(string(opt.data))
			if !ok {
				return 0, fmt.Errorf("%w: EXPORT_NAME %q unknown", ErrProtocol, string(opt.data))
			}
			buf := appendU64(nil, s.exportSize())
			buf = appendU16(buf, s.transmissionFlags())
			if !noZeroes {
				buf = append(buf, make([]byte, 124)...)
			}
			if _, err := c.Write(buf); err != nil {
				return 0, err
			}
			return vol, nil

		case optAbort:
			// Acked, then the connection closes without transmission.
			if _, err := c.Write(appendOptionReply(nil, opt.typ, repAck, nil)); err != nil {
				return 0, err
			}
			return 0, errAborted

		default:
			// STARTTLS, STRUCTURED_REPLY, META_CONTEXT, and anything newer.
			if err := s.optionErr(c, opt.typ, repErrUnsup, "unsupported option"); err != nil {
				return 0, err
			}
		}
	}
}

// optionErr sends one negotiation error reply with a human-readable
// message payload.
func (s *Server) optionErr(c io.Writer, opt, typ uint32, msg string) error {
	s.met.errors.Inc()
	_, err := c.Write(appendOptionReply(nil, opt, typ, []byte(msg)))
	return err
}

// outFrame pairs one encoded reply with its span.
type outFrame struct {
	buf []byte
	sp  *telemetry.Span
}

// transmit serves the transmission phase on one connection: a reader
// loop decoding and dispatching requests, and a writer goroutine
// serializing (possibly out-of-order) replies. Mirrors the bespoke
// frontend's connection anatomy so both frontends drain identically.
func (s *Server) transmit(conn net.Conn, br io.Reader, vol uint32) {
	ring := s.b.OpenSpanRing()
	defer s.b.CloseSpanRing(ring)
	respCh := make(chan outFrame, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(conn, respCh, ring)
	}()

	var pending sync.WaitGroup
	for {
		req, err := readRequest(br)
		if err != nil {
			break
		}
		sp := s.b.NewSpan()
		var payload []byte
		if req.cmd == cmdWrite && req.length > 0 {
			if int64(req.length) > int64(s.cfg.MaxRequestBytes) {
				// The unread payload poisons the stream; reply and close.
				s.met.errors.Inc()
				s.b.DropSpan(sp)
				respCh <- outFrame{buf: appendSimpleReply(nil, nbdEOVERFLOW, req.handle)}
				break
			}
			payload = make([]byte, req.length)
			if _, err := io.ReadFull(br, payload); err != nil {
				s.b.DropSpan(sp)
				break
			}
		}
		if sp != nil {
			sp.ID = req.handle
			sp.Volume = vol
			sp.Op = uint8(nbdOpToWire(req.cmd))
			sp.LBA = req.offset / uint64(s.blockBytes)
			sp.Count = req.length / uint32(s.blockBytes)
			sp.MarkAt(telemetry.StageDecode, s.b.Now())
		}
		if req.cmd == cmdDisc {
			s.countCmd(cmdDisc)
			s.b.DropSpan(sp)
			break
		}
		pending.Add(1)
		delivered := false
		reply := func(errno uint32, data []byte) {
			if delivered {
				panic("nbd: double reply to one request")
			}
			delivered = true
			if errno != 0 {
				s.met.errors.Inc()
			}
			if sp != nil {
				sp.Status = uint8(errnoToStatus(errno))
			}
			buf := appendSimpleReply(nil, errno, req.handle)
			buf = append(buf, data...)
			respCh <- outFrame{buf: buf, sp: sp}
			pending.Done()
		}
		s.dispatch(vol, req, payload, sp, reply)
	}
	pending.Wait()
	close(respCh)
	<-writerDone
}

// connWriter writes encoded replies, flushing when the queue
// momentarily empties; after a write failure it drains the channel so
// responders never block. Spans finish after their bytes hit the
// socket.
func (s *Server) connWriter(conn net.Conn, respCh <-chan outFrame, ring *telemetry.SpanRing) {
	buf := make([]byte, 0, 64<<10)
	var spans []*telemetry.Span
	broken := false
	flush := func() {
		if !broken && len(buf) > 0 {
			if s.cfg.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			if _, err := conn.Write(buf); err != nil {
				broken = true
			}
		}
		buf = buf[:0]
		for _, sp := range spans {
			s.b.FinishSpan(sp, ring)
		}
		spans = spans[:0]
	}
	for of := range respCh {
		if of.sp != nil {
			spans = append(spans, of.sp)
		}
		if broken {
			flush()
			continue
		}
		buf = append(buf, of.buf...)
		if len(respCh) == 0 || len(buf) >= 48<<10 {
			flush()
		}
	}
	flush()
}

// countCmd bumps the per-command request counter.
func (s *Server) countCmd(cmd uint16) {
	if int(cmd) < len(s.met.reqs) {
		s.met.reqs[cmd].Inc()
	}
}

// dispatch validates and executes one transmission request. reply must
// be called exactly once, possibly from another goroutine (batched
// writes ack from the group commit's done callback).
func (s *Server) dispatch(vol uint32, req request, payload []byte, sp *telemetry.Span, reply func(errno uint32, data []byte)) {
	s.countCmd(req.cmd)
	size := s.exportSize()
	switch req.cmd {
	case cmdRead, cmdWrite, cmdTrim, cmdWriteZeroes:
		if req.length == 0 {
			reply(nbdEINVAL, nil)
			return
		}
		if int64(req.length) > int64(s.cfg.MaxRequestBytes) {
			reply(nbdEOVERFLOW, nil)
			return
		}
		if req.offset > size || uint64(req.length) > size-req.offset {
			// Beyond-end writes are ENOSPC per the spec; reads EINVAL.
			if req.cmd == cmdWrite || req.cmd == cmdWriteZeroes {
				reply(nbdENOSPC, nil)
			} else {
				reply(nbdEINVAL, nil)
			}
			return
		}
	case cmdFlush:
		if req.offset != 0 || req.length != 0 {
			reply(nbdEINVAL, nil)
			return
		}
	default:
		reply(nbdEINVAL, nil)
		return
	}

	if err := s.b.Acquire(vol); err != nil {
		reply(mapErr(err), nil)
		return
	}
	if sp != nil {
		sp.MarkAt(telemetry.StageAdmission, s.b.Now())
	}
	finish := func(errno uint32, data []byte) {
		s.b.Release(vol)
		reply(errno, data)
	}
	switch req.cmd {
	case cmdRead:
		data, err := s.readSpan(vol, req.offset, req.length, sp)
		if err != nil {
			finish(mapErr(err), nil)
			return
		}
		s.met.bytesOut.Add(int64(len(data)))
		finish(0, data)
	case cmdWrite:
		s.met.bytesIn.Add(int64(len(payload)))
		s.writeSpan(vol, req.offset, payload, sp, func(err error) {
			finish(mapErr(err), nil)
		})
	case cmdWriteZeroes:
		// NBD_CMD_FLAG_NO_HOLE is advisory — zeroes are written either
		// way, which trivially satisfies it.
		s.writeSpan(vol, req.offset, make([]byte, req.length), sp, func(err error) {
			finish(mapErr(err), nil)
		})
	case cmdTrim:
		finish(mapErr(s.trimSpan(vol, req.offset, req.length, sp)), nil)
	case cmdFlush:
		finish(mapErr(s.b.Flush(vol, sp)), nil)
	}
}

// mapErr converts a backend error to an NBD errno.
func mapErr(err error) uint32 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, server.ErrShuttingDown):
		return nbdESHUTDOWN
	case errors.Is(err, server.ErrOutOfRange), errors.Is(err, server.ErrBadRequest),
		errors.Is(err, server.ErrBadVolume):
		return nbdEINVAL
	default:
		return nbdEIO
	}
}

// nbdOpToWire maps an NBD command to the wire opcode vocabulary so
// spans from both frontends render uniformly in /debug/trace and share
// the per-stage histograms.
func nbdOpToWire(cmd uint16) wire.Op {
	switch cmd {
	case cmdRead:
		return wire.OpRead
	case cmdWrite, cmdWriteZeroes:
		return wire.OpWrite
	case cmdTrim:
		return wire.OpTrim
	case cmdFlush:
		return wire.OpFlush
	default:
		return 0
	}
}

// errnoToStatus maps an NBD errno to the wire status vocabulary for
// span rendering.
func errnoToStatus(errno uint32) wire.Status {
	switch errno {
	case 0:
		return wire.StatusOK
	case nbdESHUTDOWN:
		return wire.StatusShuttingDown
	case nbdEINVAL, nbdEOVERFLOW:
		return wire.StatusBadRequest
	case nbdENOSPC:
		return wire.StatusOutOfRange
	default:
		return wire.StatusInternal
	}
}
