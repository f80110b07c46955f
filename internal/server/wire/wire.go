// Package wire defines the block service's compact binary protocol.
//
// Every message is one length-prefixed frame:
//
//	| u32 length | header | payload |
//
// The big-endian length covers header plus payload (not itself) and is
// bounded by MaxFrame, so a hostile prefix can never force a large
// allocation. Headers are fixed-size, carry a protocol version byte and
// a CRC32-C checksum over their own bytes, and echo a caller-chosen
// request ID so responses may complete out of order. Payload bytes
// (write data, read data, STAT counters, error text) are untouched by
// the checksum; the length prefix delimits them.
//
// Request header (32 bytes):
//
//	off  size  field
//	0    1     version (Version)
//	1    1     opcode (Op)
//	2    2     flags
//	4    8     request ID
//	12   4     volume ID
//	16   8     LBA (volume-relative block address)
//	24   4     block count
//	28   4     CRC32-C of bytes [0,28)
//
// Response header (20 bytes):
//
//	off  size  field
//	0    1     version
//	1    1     opcode (echoed)
//	2    1     status (Status)
//	3    1     reserved (0)
//	4    8     request ID (echoed)
//	12   4     block count of the payload (READ) or 0
//	16   4     CRC32-C of bytes [0,16)
//
// Decoders return errors wrapping ErrProtocol for every malformed
// input; they never panic and never allocate more than MaxFrame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the protocol version emitted and accepted by this package.
const Version = 1

// Frame and payload bounds. MaxBlocks bounds the per-request block
// count; MaxFrame bounds a whole frame (a MaxBlocks write of 4 KiB
// blocks fits with room for the header).
const (
	MaxBlocks = 1 << 10
	MaxFrame  = MaxBlocks*4096 + 64
)

// Header sizes in bytes (excluding the u32 length prefix).
const (
	ReqHeaderLen  = 32
	RespHeaderLen = 20
)

// Op is a request opcode.
type Op uint8

// Request opcodes.
const (
	OpRead Op = iota + 1
	OpWrite
	OpTrim
	OpFlush
	OpStat
)

// String returns the opcode mnemonic.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpTrim:
		return "TRIM"
	case OpFlush:
		return "FLUSH"
	case OpStat:
		return "STAT"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

func (o Op) valid() bool { return o >= OpRead && o <= OpStat }

// Request flags. Every bit but FlagTrace is reserved: clients send it
// clear and servers ignore it — bit 0 included, which older clients set
// to ask for a write path that no longer exists.
const (
	// FlagTrace opts this request into exemplar capture: when server
	// tracing is enabled its span is published to the exemplar ring
	// regardless of the latency threshold.
	FlagTrace uint16 = 1 << 1
)

// Status is a response status code.
type Status uint8

// Response statuses. Every non-OK response may carry a human-readable
// detail string as its payload.
const (
	StatusOK Status = iota
	StatusBadRequest
	StatusBadVolume
	StatusOutOfRange
	StatusBackpressure
	StatusShuttingDown
	StatusInternal
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusBadVolume:
		return "bad-volume"
	case StatusOutOfRange:
		return "out-of-range"
	case StatusBackpressure:
		return "backpressure"
	case StatusShuttingDown:
		return "shutting-down"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Protocol errors. Every decode failure wraps ErrProtocol.
var (
	ErrProtocol    = errors.New("wire: protocol error")
	ErrTooLarge    = fmt.Errorf("%w: frame exceeds MaxFrame", ErrProtocol)
	ErrShortFrame  = fmt.Errorf("%w: frame shorter than header", ErrProtocol)
	ErrBadVersion  = fmt.Errorf("%w: unsupported protocol version", ErrProtocol)
	ErrBadOp       = fmt.Errorf("%w: unknown opcode", ErrProtocol)
	ErrBadChecksum = fmt.Errorf("%w: header checksum mismatch", ErrProtocol)
	ErrBadCount    = fmt.Errorf("%w: block count out of range", ErrProtocol)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Request is one decoded client request.
type Request struct {
	Op     Op
	Flags  uint16
	ID     uint64
	Volume uint32
	LBA    uint64
	Count  uint32
	// Payload is the write data (WRITE) and empty otherwise. Decoders
	// hand the caller an owned copy; it is never aliased to an internal
	// buffer.
	Payload []byte
}

// Response is one decoded server response.
type Response struct {
	Op     Op
	Status Status
	ID     uint64
	Count  uint32
	// Payload is read data (READ), encoded stats (STAT), or an error
	// detail string for non-OK statuses.
	Payload []byte
}

// AppendRequest appends req as a complete frame (length prefix
// included) to dst and returns the extended slice.
func AppendRequest(dst []byte, req *Request) []byte {
	n := uint32(ReqHeaderLen + len(req.Payload))
	dst = binary.BigEndian.AppendUint32(dst, n)
	h := len(dst)
	dst = append(dst, Version, byte(req.Op))
	dst = binary.BigEndian.AppendUint16(dst, req.Flags)
	dst = binary.BigEndian.AppendUint64(dst, req.ID)
	dst = binary.BigEndian.AppendUint32(dst, req.Volume)
	dst = binary.BigEndian.AppendUint64(dst, req.LBA)
	dst = binary.BigEndian.AppendUint32(dst, req.Count)
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[h:], castagnoli))
	return append(dst, req.Payload...)
}

// AppendResponse appends resp as a complete frame (length prefix
// included) to dst and returns the extended slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	return append(AppendResponseHeader(dst, resp, len(resp.Payload)), resp.Payload...)
}

// AppendResponseHeader appends the length prefix and header of resp's
// frame for a payload of payloadLen bytes, ignoring resp.Payload: the
// caller appends the payload itself, straight from where it lives.
func AppendResponseHeader(dst []byte, resp *Response, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(RespHeaderLen+payloadLen))
	h := len(dst)
	dst = append(dst, Version, byte(resp.Op), byte(resp.Status), 0)
	dst = binary.BigEndian.AppendUint64(dst, resp.ID)
	dst = binary.BigEndian.AppendUint32(dst, resp.Count)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[h:], castagnoli))
}

// ResponseFrameLen is the encoded size of a response frame carrying
// payloadLen payload bytes, length prefix included.
func ResponseFrameLen(payloadLen int) int { return 4 + RespHeaderLen + payloadLen }

// DecodeRequest parses one request frame (without the length prefix).
// The returned payload is a copy; frame may be reused.
func DecodeRequest(frame []byte) (Request, error) {
	req, err := decodeRequest(frame)
	if err == nil && req.Payload != nil {
		req.Payload = append([]byte(nil), req.Payload...)
	}
	return req, err
}

// decodeRequest parses a frame with the payload aliasing frame's
// backing array — for callers that hand over frame ownership.
func decodeRequest(frame []byte) (Request, error) {
	if len(frame) > MaxFrame {
		return Request{}, ErrTooLarge
	}
	if len(frame) < ReqHeaderLen {
		return Request{}, ErrShortFrame
	}
	h := frame[:ReqHeaderLen]
	if got, want := binary.BigEndian.Uint32(h[28:32]), crc32.Checksum(h[:28], castagnoli); got != want {
		return Request{}, ErrBadChecksum
	}
	if h[0] != Version {
		return Request{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, h[0], Version)
	}
	req := Request{
		Op:     Op(h[1]),
		Flags:  binary.BigEndian.Uint16(h[2:4]),
		ID:     binary.BigEndian.Uint64(h[4:12]),
		Volume: binary.BigEndian.Uint32(h[12:16]),
		LBA:    binary.BigEndian.Uint64(h[16:24]),
		Count:  binary.BigEndian.Uint32(h[24:28]),
	}
	if !req.Op.valid() {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOp, h[1])
	}
	if req.Count > MaxBlocks {
		return Request{}, fmt.Errorf("%w: %d > %d", ErrBadCount, req.Count, MaxBlocks)
	}
	if len(frame) > ReqHeaderLen {
		req.Payload = frame[ReqHeaderLen:]
	}
	return req, nil
}

// DecodeResponse parses one response frame (without the length
// prefix). The returned payload is a copy; frame may be reused.
func DecodeResponse(frame []byte) (Response, error) {
	resp, err := decodeResponse(frame)
	if err == nil && resp.Payload != nil {
		resp.Payload = append([]byte(nil), resp.Payload...)
	}
	return resp, err
}

// decodeResponse parses a frame with the payload aliasing frame's
// backing array — for callers that hand over frame ownership.
func decodeResponse(frame []byte) (Response, error) {
	if len(frame) > MaxFrame {
		return Response{}, ErrTooLarge
	}
	if len(frame) < RespHeaderLen {
		return Response{}, ErrShortFrame
	}
	h := frame[:RespHeaderLen]
	if got, want := binary.BigEndian.Uint32(h[16:20]), crc32.Checksum(h[:16], castagnoli); got != want {
		return Response{}, ErrBadChecksum
	}
	if h[0] != Version {
		return Response{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, h[0], Version)
	}
	resp := Response{
		Op:     Op(h[1]),
		Status: Status(h[2]),
		ID:     binary.BigEndian.Uint64(h[4:12]),
		Count:  binary.BigEndian.Uint32(h[12:16]),
	}
	if !resp.Op.valid() {
		return Response{}, fmt.Errorf("%w: %d", ErrBadOp, h[1])
	}
	if len(frame) > RespHeaderLen {
		resp.Payload = frame[RespHeaderLen:]
	}
	return resp, nil
}

// readFrame reads one length-prefixed frame body. The length prefix is
// validated against MaxFrame before any body allocation.
func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF passes through for clean connection close
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d", ErrTooLarge, n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return frame, nil
}

// DecodeRequestOwned parses a request frame whose storage the caller
// hands over: the returned payload aliases frame (no copy). frame must
// not be reused afterwards.
func DecodeRequestOwned(frame []byte) (Request, error) {
	return decodeRequest(frame)
}

// ReadRequest reads and decodes one request frame from r. A clean EOF
// before the first length byte is returned as io.EOF. The returned
// payload owns the freshly-read frame's storage (no second copy).
func ReadRequest(r io.Reader) (Request, error) {
	frame, err := readFrame(r)
	if err != nil {
		return Request{}, err
	}
	return decodeRequest(frame)
}

// ReadResponse reads and decodes one response frame from r. The
// returned payload owns the freshly-read frame's storage.
func ReadResponse(r io.Reader) (Response, error) {
	frame, err := readFrame(r)
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(frame)
}

// Stat is one named counter in a STAT response payload.
type Stat struct {
	Name  string
	Value int64
}

// maxStatName bounds a stat name on the wire.
const maxStatName = 256

// AppendStats encodes stats as a STAT payload: a u32 entry count, then
// per entry a u16 name length, the name bytes, and an i64 value.
func AppendStats(dst []byte, stats []Stat) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(stats)))
	for _, st := range stats {
		name := st.Name
		if len(name) > maxStatName {
			name = name[:maxStatName]
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(st.Value))
	}
	return dst
}

// DecodeStats parses a STAT payload. The entry count is validated
// against the payload size before any allocation.
func DecodeStats(b []byte) ([]Stat, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: stats payload too short", ErrProtocol)
	}
	n := binary.BigEndian.Uint32(b[:4])
	b = b[4:]
	// Each entry takes at least 2 (name length) + 8 (value) bytes.
	if uint64(n)*10 > uint64(len(b)) {
		return nil, fmt.Errorf("%w: stats count %d exceeds payload", ErrProtocol, n)
	}
	out := make([]Stat, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: truncated stat name length", ErrProtocol)
		}
		nameLen := int(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
		if nameLen > maxStatName {
			return nil, fmt.Errorf("%w: stat name length %d", ErrProtocol, nameLen)
		}
		if len(b) < nameLen+8 {
			return nil, fmt.Errorf("%w: truncated stat entry", ErrProtocol)
		}
		out = append(out, Stat{
			Name:  string(b[:nameLen]),
			Value: int64(binary.BigEndian.Uint64(b[nameLen : nameLen+8])),
		})
		b = b[nameLen+8:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after stats", ErrProtocol, len(b))
	}
	return out, nil
}
