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

	"adapt/internal/server"
	"adapt/internal/server/bufpool"
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
	// lc is the connection lifecycle: accept, track, drain.
	lc *server.Lifecycle

	blockBytes int
	volBlocks  int64
	volumes    int

	// rmw serializes read-modify-write cycles per volume so two
	// unaligned writes to the same block cannot interleave their read
	// and write halves (overlapping *aligned* concurrent writes remain
	// undefined, as on any block device).
	rmw []sync.Mutex

	// zero is the read-only source every WRITE_ZEROES writes from,
	// MaxRequestBytes long and allocated on first use.
	zeroOnce sync.Once
	zero     []byte
}

// New builds an NBD frontend over the backend.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("nbd: nil backend")
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
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
	s.lc = server.NewLifecycle(s.met.conns)
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
func (s *Server) Serve(ln net.Listener) error { return s.lc.Serve(ln, s.serveConn) }

// Shutdown drains the NBD frontend: in-flight requests complete and
// are acked, then connections close. The backend stays open. Call it
// before draining the backend itself, so pending NBD writes can still
// commit.
func (s *Server) Shutdown(ctx context.Context) error { return s.lc.Shutdown(ctx) }

// errAborted marks a clean client-requested negotiation end
// (NBD_OPT_ABORT): close the connection without a transmission phase.
var errAborted = errors.New("nbd: negotiation aborted by client")

// serveConn runs one connection: handshake, then transmission. A peer
// that connects and never negotiates is reaped on the idle deadline
// like a silent wire client; the deadline comes off on entering
// transmission, where a kernel initiator legitimately idles for hours.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	s.lc.ArmIdle(conn)
	vol, err := s.handshake(rw{br, conn})
	if err != nil {
		return
	}
	s.lc.ClearIdle(conn)
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

// transmit is the NBD codec over one connection's transmission phase:
// read a request, fill the span, dispatch.
func (s *Server) transmit(conn net.Conn, br io.Reader, vol uint32) {
	q := server.NewReplies(conn, s.b, 64)
	defer q.Close()
	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		if req.cmd == cmdDisc {
			s.countCmd(cmdDisc)
			return
		}
		sp := s.b.NewSpan()
		var payload []byte
		if req.cmd == cmdWrite && req.length > 0 {
			if int64(req.length) > int64(s.cfg.MaxRequestBytes) {
				// The unread payload poisons the stream; reply and close.
				s.b.DropSpan(sp)
				s.reply(q.Begin(nil), req.handle, nbdEOVERFLOW, nil)
				return
			}
			payload = bufpool.Get(int(req.length))
			if _, err := io.ReadFull(br, payload); err != nil {
				bufpool.Put(payload)
				s.b.DropSpan(sp)
				return
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
		s.dispatch(vol, req, payload, sp, q.Begin(sp))
	}
}

// reply encodes one simple reply (errno, handle, READ data) into a
// pooled frame as the request's one response; data is copied, so the
// caller may release it once reply returns.
func (s *Server) reply(rp *server.Reply, handle uint64, errno uint32, data []byte) {
	if errno != 0 {
		s.met.errors.Inc()
	}
	frame := appendSimpleReply(bufpool.Get(16 + len(data))[:0], errno, handle) // 16: the header
	rp.Send(errnoToStatus(errno), append(frame, data...))
}

// zeroes returns the first n bytes of the shared zero source. Nobody
// writes to it and nobody releases it.
func (s *Server) zeroes(n uint32) []byte {
	s.zeroOnce.Do(func() { s.zero = make([]byte, s.cfg.MaxRequestBytes) })
	return s.zero[:n:n]
}

// finish replies with err's errno for an admitted request, first
// freeing its slot.
func (s *Server) finish(rp *server.Reply, vol uint32, handle uint64, err error, data []byte) {
	s.b.Release(vol)
	s.reply(rp, handle, mapErr(err), data)
}

// countCmd bumps the per-command request counter.
func (s *Server) countCmd(cmd uint16) {
	if int(cmd) < len(s.met.reqs) {
		s.met.reqs[cmd].Inc()
	}
}

// dispatch validates and executes one transmission request. rp is sent
// exactly once, possibly from another goroutine (batched writes ack
// from the group commit's done callback). payload, a WRITE's pooled
// data, goes back to bufpool when the request is refused or, once
// admitted, when its write is acked.
func (s *Server) dispatch(vol uint32, req request, payload []byte, sp *telemetry.Span, rp *server.Reply) {
	s.countCmd(req.cmd)
	size := s.exportSize()
	errno := uint32(0)
	switch req.cmd {
	case cmdRead, cmdWrite, cmdTrim, cmdWriteZeroes:
		switch {
		case req.length == 0:
			errno = nbdEINVAL
		case int64(req.length) > int64(s.cfg.MaxRequestBytes):
			errno = nbdEOVERFLOW
		case req.offset > size || uint64(req.length) > size-req.offset:
			// Beyond-end writes are ENOSPC per the spec; reads EINVAL.
			errno = nbdEINVAL
			if req.cmd == cmdWrite || req.cmd == cmdWriteZeroes {
				errno = nbdENOSPC
			}
		}
	case cmdFlush:
		if req.offset != 0 || req.length != 0 {
			errno = nbdEINVAL
		}
	default:
		errno = nbdEINVAL
	}
	if errno == 0 {
		errno = mapErr(s.b.Acquire(vol))
	}
	if errno != 0 {
		bufpool.Put(payload)
		s.reply(rp, req.handle, errno, nil)
		return
	}
	if sp != nil {
		sp.MarkAt(telemetry.StageAdmission, s.b.Now())
	}
	switch req.cmd {
	case cmdRead:
		data, buf, err := s.readSpan(vol, req.offset, req.length, sp)
		if err == nil {
			s.met.bytesOut.Add(int64(len(data)))
		}
		s.finish(rp, vol, req.handle, err, data)
		bufpool.Put(buf)
	case cmdWrite:
		s.met.bytesIn.Add(int64(len(payload)))
		s.writeSpan(vol, req.offset, payload, sp, func(err error) {
			bufpool.Put(payload)
			s.finish(rp, vol, req.handle, err, nil)
		})
	case cmdWriteZeroes:
		// NBD_CMD_FLAG_NO_HOLE is advisory — zeroes are written either
		// way, which trivially satisfies it.
		s.writeSpan(vol, req.offset, s.zeroes(req.length), sp, func(err error) {
			s.finish(rp, vol, req.handle, err, nil)
		})
	case cmdTrim:
		s.finish(rp, vol, req.handle, s.trimSpan(vol, req.offset, req.length, sp), nil)
	case cmdFlush:
		s.finish(rp, vol, req.handle, s.b.Flush(vol, sp), nil)
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
