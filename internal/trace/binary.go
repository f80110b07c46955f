package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adapt/internal/sim"
)

// Binary trace format: a magic header followed by delta-encoded varint
// records. Synthesized volume suites are stored in this format; it is
// roughly 6× smaller than CSV and loss-free.
//
//	header: "ADPTRC01" | varint name length | name bytes | varint count
//	record: varint Δtime(ns) | byte op | varint offset | varint size
var binMagic = []byte("ADPTRC01")

// ErrBadFormat reports a malformed binary trace.
var ErrBadFormat = errors.New("trace: bad binary format")

// WriteBinary encodes t to w.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Records))); err != nil {
		return err
	}
	var prev sim.Time
	for _, r := range t.Records {
		d := r.Time - prev
		if d < 0 {
			return fmt.Errorf("trace: unsorted records (WriteBinary requires time order)")
		}
		prev = r.Time
		if err := putUvarint(uint64(d)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(r.Op)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Offset)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Size)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head) != string(binMagic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, head)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: name length: %v", ErrBadFormat, err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("%w: name length %d", ErrBadFormat, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadFormat, err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: record count: %v", ErrBadFormat, err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("%w: record count %d", ErrBadFormat, count)
	}
	// count is the file's claim: a 14-byte file may not reserve 128 GiB.
	t := &Trace{Name: string(name), Records: make([]Record, 0, min(count, 1<<16))}
	var now sim.Time
	for i := uint64(0); i < count; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d time: %v", ErrBadFormat, i, err)
		}
		op, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: record %d op: %v", ErrBadFormat, i, err)
		}
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d offset: %v", ErrBadFormat, i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d size: %v", ErrBadFormat, i, err)
		}
		now += sim.Time(d)
		t.Records = append(t.Records, Record{
			Time: now, Op: Op(op), Offset: int64(off), Size: int64(size),
		})
	}
	return t, nil
}
