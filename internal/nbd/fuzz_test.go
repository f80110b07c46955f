package nbd

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// fuzzBackend is a minimal in-memory VolumeBackend so the handshake
// fuzzer can build a Server without booting an engine. The handshake
// never touches the data plane, so the ops are stubs.
type fuzzBackend struct {
	data []byte
}

func (f *fuzzBackend) Volumes() int        { return 3 }
func (f *fuzzBackend) VolumeBlocks() int64 { return 128 }
func (f *fuzzBackend) BlockBytes() int     { return 64 }
func (f *fuzzBackend) Now() sim.Time       { return 0 }

func (f *fuzzBackend) Acquire(vol uint32) error { return nil }
func (f *fuzzBackend) Release(vol uint32)       {}

func (f *fuzzBackend) ReadBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) ([]byte, error) {
	return make([]byte, blocks*f.BlockBytes()), nil
}

func (f *fuzzBackend) WriteBlocks(vol uint32, lba int64, payload []byte, sp *telemetry.Span, done func(error)) {
	done(nil)
}

func (f *fuzzBackend) TrimBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) error {
	return nil
}

func (f *fuzzBackend) Flush(vol uint32, sp *telemetry.Span) error { return nil }

func (f *fuzzBackend) NewSpan() *telemetry.Span                             { return nil }
func (f *fuzzBackend) FinishSpan(sp *telemetry.Span, r *telemetry.SpanRing) {}
func (f *fuzzBackend) DropSpan(sp *telemetry.Span)                          {}
func (f *fuzzBackend) OpenSpanRing() *telemetry.SpanRing                    { return nil }
func (f *fuzzBackend) CloseSpanRing(r *telemetry.SpanRing)                  {}

var _ server.VolumeBackend = (*fuzzBackend)(nil)

func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(Config{Backend: &fuzzBackend{}})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// handshakeBytes assembles a client→server handshake byte stream:
// client flags followed by zero or more options.
func handshakeBytes(flags uint32, opts ...[]byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, flags)
	for _, o := range opts {
		out = append(out, o...)
	}
	return out
}

// optFrame assembles one option frame.
func optFrame(typ uint32, payload []byte) []byte {
	out := binary.BigEndian.AppendUint64(nil, optMagic)
	out = binary.BigEndian.AppendUint32(out, typ)
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// goPayload assembles an NBD_OPT_GO / NBD_OPT_INFO payload.
func goPayload(name string, infos ...uint16) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(name)))
	out = append(out, name...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(infos)))
	for _, in := range infos {
		out = binary.BigEndian.AppendUint16(out, in)
	}
	return out
}

// FuzzNBDHandshake feeds arbitrary bytes to the server side of the
// newstyle fixed negotiation. The server must never panic and never
// allocate proportionally to attacker-claimed lengths; errors and
// error replies are the expected outcome for garbage.
func FuzzNBDHandshake(f *testing.F) {
	// Well-formed conversations.
	f.Add(handshakeBytes(clientFlagFixedNewstyle, optFrame(optGo, goPayload("vol0", infoBlockSize))))
	f.Add(handshakeBytes(clientFlagFixedNewstyle|clientFlagNoZeroes,
		optFrame(optList, nil), optFrame(optInfo, goPayload("vol1")), optFrame(optGo, goPayload(""))))
	f.Add(handshakeBytes(clientFlagFixedNewstyle, optFrame(optExportName, []byte("vol2"))))
	f.Add(handshakeBytes(clientFlagFixedNewstyle, optFrame(optAbort, nil)))
	// Torn and hostile variants.
	f.Add(handshakeBytes(clientFlagFixedNewstyle, optFrame(optGo, goPayload("vol0"))[:12]))
	f.Add(handshakeBytes(0))
	f.Add(handshakeBytes(^uint32(0), optFrame(optGo, goPayload("vol0"))))
	f.Add(handshakeBytes(clientFlagFixedNewstyle, optFrame(optGo, binary.BigEndian.AppendUint32(nil, 1<<30))))
	f.Add(handshakeBytes(clientFlagFixedNewstyle, optFrame(99, bytes.Repeat([]byte{7}, 300))))
	f.Add([]byte{})

	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		vol, err := s.handshake(rw{bytes.NewReader(data), io.Discard})
		if err == nil && vol >= uint32(s.volumes) {
			t.Fatalf("handshake admitted out-of-range volume %d", vol)
		}
	})
}

// FuzzNBDRequest feeds arbitrary bytes to the bounded transmission and
// option decoders. None may panic, and none may allocate based on an
// unvalidated length field.
func FuzzNBDRequest(f *testing.F) {
	// A valid WRITE request header.
	req := binary.BigEndian.AppendUint32(nil, requestMagic)
	req = binary.BigEndian.AppendUint16(req, cmdFlagFUA)
	req = binary.BigEndian.AppendUint16(req, cmdWrite)
	req = binary.BigEndian.AppendUint64(req, 0xdeadbeef)
	req = binary.BigEndian.AppendUint64(req, 4096)
	req = binary.BigEndian.AppendUint32(req, 512)
	f.Add(req)
	// Bad magic.
	f.Add(bytes.Repeat([]byte{0x25}, 28))
	// Oversized claimed length.
	huge := binary.BigEndian.AppendUint32(nil, requestMagic)
	huge = binary.BigEndian.AppendUint16(huge, 0)
	huge = binary.BigEndian.AppendUint16(huge, cmdRead)
	huge = binary.BigEndian.AppendUint64(huge, 1)
	huge = binary.BigEndian.AppendUint64(huge, 0)
	huge = binary.BigEndian.AppendUint32(huge, ^uint32(0))
	f.Add(huge)
	// Torn header.
	f.Add(req[:13])
	// Option frames reuse the same corpus entries through readOption.
	f.Add(optFrame(optGo, goPayload("vol0", infoBlockSize, infoName)))
	f.Add(optFrame(optList, bytes.Repeat([]byte{1}, 64)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := readRequest(bytes.NewReader(data)); err == nil {
			_ = cmdName(req.cmd)
		}
		if o, err := readOption(bytes.NewReader(data)); err == nil {
			if len(o.data) > maxOptionLen {
				t.Fatalf("option %d payload %d exceeds cap %d", o.typ, len(o.data), maxOptionLen)
			}
			if name, infos, perr := parseInfoPayload(o.data); perr == nil {
				if len(name) > maxOptionLen || len(infos) > maxOptionLen {
					t.Fatal("info payload fields exceed option cap")
				}
			}
		}
	})
}
