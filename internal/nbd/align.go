package nbd

import (
	"adapt/internal/server/bufpool"
	"adapt/internal/telemetry"
)

// The alignment layer: NBD addresses bytes, the engine addresses
// blocks. Reads widen to the covering block range and slice the
// answer. Aligned writes pass straight through to the backend (and
// its group committers). Unaligned writes become read-modify-write
// cycles: the ragged head/tail blocks are read, the new bytes merged,
// and the covering range written back as one block-aligned write —
// serialized per volume so two RMW cycles cannot interleave their
// read and write halves. Trims shrink to the fully-covered interior
// (a trim is advisory, so dropping ragged edges is correct);
// write-zeroes reuses the write path with a zero payload, so zeroes
// always read back as zeroes.
//
// Every caller has already validated offset+length against the export
// size and the request cap, so the arithmetic here cannot overflow:
// offsets fit in int64 because export size = VolumeBlocks × BlockBytes
// does.

// blockSpan returns the covering block range [start, end) of the byte
// span [off, off+length).
func (s *Server) blockSpan(off uint64, length uint32) (start, end int64) {
	b := uint64(s.blockBytes)
	start = int64(off / b)
	end = int64((off + uint64(length) + b - 1) / b)
	return start, end
}

// readSpan reads the byte span [off, off+length) as data, a slice of
// buf — the widened block range, which the caller hands to bufpool.Put
// once data is copied out.
func (s *Server) readSpan(vol uint32, off uint64, length uint32, sp *telemetry.Span) (data, buf []byte, err error) {
	start, end := s.blockSpan(off, length)
	buf, err = s.b.ReadBlocks(vol, start, int(end-start), sp)
	if err != nil {
		return nil, nil, err
	}
	head := off - uint64(start)*uint64(s.blockBytes)
	return buf[head : head+uint64(length)], buf, nil
}

// writeSpan writes data at byte offset off, calling done exactly once
// with the ack. The aligned fast path hands the payload to the
// backend untouched; ragged edges take the RMW slow path, which merges
// into a pooled buffer released at the ack. Either way data stays
// the caller's, untouched, until done runs.
func (s *Server) writeSpan(vol uint32, off uint64, data []byte, sp *telemetry.Span, done func(error)) {
	b := uint64(s.blockBytes)
	if off%b == 0 && uint64(len(data))%b == 0 {
		s.b.WriteBlocks(vol, int64(off/b), data, sp, done)
		return
	}
	s.met.rmwWrites.Inc()
	start, end := s.blockSpan(off, uint32(len(data)))
	mu := &s.rmw[vol]
	mu.Lock()
	// Every byte of buf is overwritten below: the ragged head and tail
	// blocks with their current bytes, the rest with data. One read
	// suffices when the span lives inside a single block.
	buf := bufpool.Get(int((end - start) * int64(b)))
	var err error
	if off%b != 0 || end-start == 1 {
		err = s.readBlock(buf, vol, start, sp)
	}
	if err == nil && (off+uint64(len(data)))%b != 0 && end-1 > start {
		err = s.readBlock(buf[(end-1-start)*int64(b):], vol, end-1, sp)
	}
	if err != nil {
		mu.Unlock()
		bufpool.Put(buf)
		done(err)
		return
	}
	copy(buf[off-uint64(start)*b:], data)
	s.b.WriteBlocks(vol, start, buf, sp, func(err error) {
		mu.Unlock()
		bufpool.Put(buf)
		done(err)
	})
}

// readBlock copies block lba's current bytes into dst.
func (s *Server) readBlock(dst []byte, vol uint32, lba int64, sp *telemetry.Span) error {
	old, err := s.b.ReadBlocks(vol, lba, 1, sp)
	if err != nil {
		return err
	}
	copy(dst, old)
	bufpool.Put(old)
	return nil
}

// trimSpan trims the blocks fully covered by [off, off+length). A
// ragged edge is simply kept — NBD_CMD_TRIM is advisory, and the
// engine's trim granularity is the block.
func (s *Server) trimSpan(vol uint32, off uint64, length uint32, sp *telemetry.Span) error {
	b := uint64(s.blockBytes)
	first := int64((off + b - 1) / b)
	past := int64((off + uint64(length)) / b)
	if past <= first {
		return nil
	}
	return s.b.TrimBlocks(vol, first, int(past-first), sp)
}
