package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

func TestRequestRoundtrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab, 0x5e}, 2048)
	reqs := []Request{
		{Op: OpWrite, Flags: FlagTrace | 1, ID: 42, Volume: 7, LBA: 123456, Count: 1, Payload: payload},
		{Op: OpRead, ID: 1 << 60, Volume: 0, LBA: 0, Count: MaxBlocks},
		{Op: OpTrim, ID: 3, Volume: 2, LBA: 99, Count: 12},
		{Op: OpFlush, ID: 4, Volume: 1},
		{Op: OpStat, ID: 5},
	}
	var buf bytes.Buffer
	for i := range reqs {
		buf.Write(AppendRequest(nil, &reqs[i]))
	}
	for i := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := reqs[i]
		if got.Op != want.Op || got.Flags != want.Flags || got.ID != want.ID ||
			got.Volume != want.Volume || got.LBA != want.LBA || got.Count != want.Count ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("request %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadRequest(&buf); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestResponseRoundtrip(t *testing.T) {
	resps := []Response{
		{Op: OpRead, Status: StatusOK, ID: 9, Count: 2, Payload: []byte("datadata")},
		{Op: OpWrite, Status: StatusBackpressure, ID: 10, Payload: []byte("volume 3 inflight limit")},
		{Op: OpStat, Status: StatusOK, ID: 11, Payload: AppendStats(nil, []Stat{{Name: "x", Value: -7}})},
		{Op: OpFlush, Status: StatusShuttingDown, ID: 12},
	}
	var buf bytes.Buffer
	for i := range resps {
		buf.Write(AppendResponse(nil, &resps[i]))
	}
	for i := range resps {
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		want := resps[i]
		if got.Op != want.Op || got.Status != want.Status || got.ID != want.ID ||
			got.Count != want.Count || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("response %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestStatsRoundtrip(t *testing.T) {
	stats := []Stat{
		{Name: "store_user_blocks", Value: 123},
		{Name: "srv_backpressure", Value: 0},
		{Name: "neg", Value: -42},
	}
	got, err := DecodeStats(AppendStats(nil, stats))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stats) {
		t.Fatalf("got %d stats, want %d", len(got), len(stats))
	}
	for i := range stats {
		if got[i] != stats[i] {
			t.Fatalf("stat %d: got %+v, want %+v", i, got[i], stats[i])
		}
	}
}

// corrupt returns frame with one byte flipped at off.
func corrupt(frame []byte, off int) []byte {
	out := append([]byte(nil), frame...)
	out[off] ^= 0x40
	return out
}

func TestHostileRequestFrames(t *testing.T) {
	good := AppendRequest(nil, &Request{Op: OpWrite, ID: 1, Volume: 2, LBA: 3, Count: 1, Payload: make([]byte, 64)})
	body := good[4:] // frame without length prefix

	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrShortFrame},
		{"truncated header", body[:ReqHeaderLen-5], ErrShortFrame},
		{"bad version", corrupt(body, 0), ErrBadChecksum}, // checksum covers the version byte
		{"bad opcode", corrupt(body, 1), ErrBadChecksum},
		{"corrupt checksum", corrupt(body, ReqHeaderLen-1), ErrBadChecksum},
		{"corrupt id", corrupt(body, 6), ErrBadChecksum},
		{"oversize", make([]byte, MaxFrame+1), ErrTooLarge},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// A re-checksummed bad version / opcode / count must fail on its own check.
	reseal := func(mutate func([]byte)) []byte {
		f := append([]byte(nil), body...)
		mutate(f)
		binary.BigEndian.PutUint32(f[28:32], crc32.Checksum(f[:28], castagnoli))
		return f
	}
	if _, err := DecodeRequest(reseal(func(f []byte) { f[0] = 99 })); !errors.Is(err, ErrBadVersion) {
		t.Errorf("resealed bad version: got %v", err)
	}
	if _, err := DecodeRequest(reseal(func(f []byte) { f[1] = 0 })); !errors.Is(err, ErrBadOp) {
		t.Errorf("resealed bad opcode: got %v", err)
	}
	if _, err := DecodeRequest(reseal(func(f []byte) {
		binary.BigEndian.PutUint32(f[24:28], MaxBlocks+1)
	})); !errors.Is(err, ErrBadCount) {
		t.Errorf("resealed bad count: got %v", err)
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// An oversize length prefix must be rejected before allocation.
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(1<<31))
	if _, err := ReadRequest(&buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize prefix: got %v, want ErrTooLarge", err)
	}
	// A truthful prefix with a truncated body is an unexpected EOF.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(ReqHeaderLen))
	buf.Write(make([]byte, 4))
	if _, err := ReadRequest(&buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestHostileStats(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"short", []byte{1, 2}},
		{"count exceeds payload", binary.BigEndian.AppendUint32(nil, 1<<30)},
		{"truncated entry", append(binary.BigEndian.AppendUint32(nil, 1), 0, 200)},
		{"trailing bytes", append(AppendStats(nil, []Stat{{Name: "a", Value: 1}}), 0xff)},
	}
	for _, tc := range cases {
		if _, err := DecodeStats(tc.b); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want ErrProtocol", tc.name, err)
		}
	}
}
