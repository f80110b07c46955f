package segfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk format. One file per physical segment id, seg-NNNNN.seg,
// holding the id's current incarnation — or nothing: a zero-length
// file is a free slot, left by FreeSegment for the next incarnation to
// write into. Plus a checkpoint file replaced by atomic rename:
//
//	segment file = header | record*
//	header       = magic8 "ADPTSEG1" | u32 segID | u32 group |
//	               u64 born | u64 epoch | u32 dataStart | u32 CRC32-C
//	record       = u32 len | u8 kind | body[len-1] | u32 CRC32-C(kind|body)
//	chunk body   = uvarint chunkIdx | uvarint w | uvarint now |
//	               uvarint slots | slots × (varint slotVal, varint ver)
//	seal body    = uvarint sealedW
//	pad body     = zeros (skipped on parse)
//
// Nothing writes pad records or a dataStart beyond the header any more:
// both are the layout of the removed O_DIRECT append mode (header block
// and every record padded to 512 bytes), which the parser still reads
// so directories written that way recover.
//
// Torn-write safety: the header is written in a single syscall but not
// synced on its own — it becomes durable with the first sync of the
// file, the same sync that makes the first chunk anyone was promised
// durable, so until then a crash may leave the file empty, header-only
// or with an unreadable header, and all three mean "no incarnation". A
// file is only ever written from length zero (a new name, or a free
// slot whose truncation was synced before the id could be reused), so
// no byte of an earlier incarnation can sit behind a new header. Every
// record carries its own CRC32-C (the Castagnoli discipline shared with
// internal/server/wire), and chunk records must form a contiguous
// chunkIdx prefix — the parser stops at the first hole, bad CRC, or
// short read, so a torn tail truncates cleanly to the last durable
// chunk. A seal record is reached only through every record before it
// and honored only when every chunk of the segment parsed (write-ahead
// seal: data first, enforced by the parser rather than by a sync
// between the two). The checkpoint file carries the same magic/CRC
// discipline and only clock floors — segment files are the sole mapping
// authority.

var segMagic = []byte("ADPTSEG1")
var ckptMagic = []byte("ADPTCKF1")

// castagnoli is the CRC32-C table, the same checksum discipline the
// wire protocol uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize = 40

	recPad   = 0
	recChunk = 1
	recSeal  = 2

	// recordOverhead = len prefix + kind + trailing CRC.
	recordOverhead = 9
)

// ErrCorrupt reports an unparseable segment or checkpoint file.
var ErrCorrupt = errors.New("segfile: corrupt file")

// segFileName returns the file name for segment id.
func segFileName(id int) string { return fmt.Sprintf("seg-%05d.seg", id) }

// SegmentFileName exposes the on-disk naming for tests and tooling.
func SegmentFileName(id int) string { return segFileName(id) }

// parseSegFileName returns the segment id encoded in a file name.
func parseSegFileName(name string) (int, bool) {
	var id int
	if _, err := fmt.Sscanf(name, "seg-%05d.seg", &id); err != nil || segFileName(id) != name {
		return 0, false
	}
	return id, true
}

const (
	ckptName    = "checkpoint"
	ckptTmpName = "checkpoint.tmp"
)

// segHeader is the decoded fixed-size segment file header.
type segHeader struct {
	segID     int
	group     int
	born      uint64
	epoch     uint64
	dataStart int
}

// encodeHeader serializes h into a dataStart-sized block (the tail
// beyond the 40 header bytes is zero filler so the first record starts
// aligned).
func encodeHeader(h segHeader) []byte {
	buf := make([]byte, h.dataStart)
	copy(buf, segMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(h.segID))
	binary.BigEndian.PutUint32(buf[12:], uint32(h.group))
	binary.BigEndian.PutUint64(buf[16:], h.born)
	binary.BigEndian.PutUint64(buf[24:], h.epoch)
	binary.BigEndian.PutUint32(buf[32:], uint32(h.dataStart))
	binary.BigEndian.PutUint32(buf[36:], crc32.Checksum(buf[:36], castagnoli))
	return buf
}

// decodeHeader parses and validates a segment file header.
func decodeHeader(data []byte) (segHeader, error) {
	if len(data) < headerSize {
		return segHeader{}, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:8]) != string(segMagic) {
		return segHeader{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if got, want := binary.BigEndian.Uint32(data[36:40]), crc32.Checksum(data[:36], castagnoli); got != want {
		return segHeader{}, fmt.Errorf("%w: header CRC %08x != %08x", ErrCorrupt, got, want)
	}
	h := segHeader{
		segID:     int(binary.BigEndian.Uint32(data[8:])),
		group:     int(binary.BigEndian.Uint32(data[12:])),
		born:      binary.BigEndian.Uint64(data[16:]),
		epoch:     binary.BigEndian.Uint64(data[24:]),
		dataStart: int(binary.BigEndian.Uint32(data[32:])),
	}
	if h.dataStart < headerSize || h.dataStart > 1<<20 {
		return segHeader{}, fmt.Errorf("%w: data start %d out of range", ErrCorrupt, h.dataStart)
	}
	return h, nil
}

// appendRecord appends one framed record (len | kind | body | CRC).
func appendRecord(dst []byte, kind byte, body []byte) []byte {
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(1+len(body)))
	dst = append(dst, lenb[:]...)
	start := len(dst)
	dst = append(dst, kind)
	dst = append(dst, body...)
	var crcb [4]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.Checksum(dst[start:], castagnoli))
	return append(dst, crcb[:]...)
}

// chunkRecord is a decoded chunk record.
type chunkRecord struct {
	chunk int
	w     uint64
	now   uint64
	lbas  []int64
	vers  []int64
}

// encodeChunkBody serializes a chunk record body.
func encodeChunkBody(chunk int, w, now uint64, lbas, vers []int64) []byte {
	body := make([]byte, 0, 4*binary.MaxVarintLen64+len(lbas)*2*binary.MaxVarintLen64)
	body = binary.AppendUvarint(body, uint64(chunk))
	body = binary.AppendUvarint(body, w)
	body = binary.AppendUvarint(body, now)
	body = binary.AppendUvarint(body, uint64(len(lbas)))
	for i := range lbas {
		body = binary.AppendVarint(body, lbas[i])
		body = binary.AppendVarint(body, vers[i])
	}
	return body
}

// decodeChunkBody parses a chunk record body.
func decodeChunkBody(body []byte) (chunkRecord, error) {
	var rec chunkRecord
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	i := func() (int64, bool) {
		v, n := binary.Varint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	chunk, ok1 := u()
	w, ok2 := u()
	now, ok3 := u()
	slots, ok4 := u()
	if !ok1 || !ok2 || !ok3 || !ok4 || chunk > 1<<20 || slots > 1<<20 {
		return rec, fmt.Errorf("%w: chunk record header", ErrCorrupt)
	}
	if slots*2 > uint64(len(body)) {
		// Each slot costs at least two varint bytes; a claimed count the
		// body cannot hold is corruption — reject before allocating.
		return rec, fmt.Errorf("%w: chunk record claims %d slots in %d bytes", ErrCorrupt, slots, len(body))
	}
	rec.chunk = int(chunk)
	rec.w = w
	rec.now = now
	rec.lbas = make([]int64, slots)
	rec.vers = make([]int64, slots)
	for s := uint64(0); s < slots; s++ {
		lba, ok := i()
		ver, ok2 := i()
		if !ok || !ok2 {
			return rec, fmt.Errorf("%w: chunk record slot %d", ErrCorrupt, s)
		}
		rec.lbas[s] = lba
		rec.vers[s] = ver
	}
	if len(body) != 0 {
		return rec, fmt.Errorf("%w: %d trailing chunk-record bytes", ErrCorrupt, len(body))
	}
	return rec, nil
}

// segImage is the durable state parsed out of one segment file: the
// contiguous chunk prefix, whether a (complete, honored) seal record
// followed it, and the byte length of the valid prefix — everything
// past validLen is a torn tail the store truncates before appending
// again.
type segImage struct {
	header  segHeader
	chunks  []chunkRecord
	sealed  bool
	sealedW uint64
	// chunkEnds[i] is the file offset just past chunk record i, and
	// sealOff the offset where the seal record begins — recovery
	// truncates to these boundaries when it drops a geometry-invalid
	// chunk or degrades an incomplete seal.
	chunkEnds []int64
	sealOff   int64
	validLen  int64
	torn      int // records dropped at the tail (bad CRC / hole / short)
}

// parseSegment walks a segment file, returning its durable image. Only
// the header must be intact (an error otherwise); record-level damage
// truncates rather than fails.
func parseSegment(data []byte) (*segImage, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	img := &segImage{header: h, validLen: int64(h.dataStart)}
	if h.dataStart > len(data) {
		// The header promises record space the file does not have:
		// nothing durable beyond the header, and the tail is torn.
		img.validLen = int64(len(data))
		img.torn++
		return img, nil
	}
	off := h.dataStart
	for off < len(data) {
		if len(data)-off < recordOverhead {
			img.torn++
			return img, nil
		}
		rlen := int(binary.BigEndian.Uint32(data[off:]))
		if rlen < 1 || rlen > len(data)-off-8 {
			img.torn++
			return img, nil
		}
		payload := data[off+4 : off+4+rlen]
		crc := binary.BigEndian.Uint32(data[off+4+rlen:])
		if crc != crc32.Checksum(payload, castagnoli) {
			img.torn++
			return img, nil
		}
		switch payload[0] {
		case recPad:
			// Alignment filler.
		case recChunk:
			rec, err := decodeChunkBody(payload[1:])
			if err != nil || rec.chunk != len(img.chunks) {
				// Undecodable or out-of-order chunk: the contiguous
				// durable prefix ends here.
				img.torn++
				return img, nil
			}
			img.chunks = append(img.chunks, rec)
			img.chunkEnds = append(img.chunkEnds, int64(off)+int64(rlen)+8)
		case recSeal:
			sealedW, n := binary.Uvarint(payload[1:])
			if n <= 0 {
				img.torn++
				return img, nil
			}
			img.sealed = true
			img.sealedW = sealedW
			img.sealOff = int64(off)
			img.validLen = int64(off) + int64(rlen) + 8
			return img, nil
		default:
			img.torn++
			return img, nil
		}
		off += rlen + 8
		img.validLen = int64(off)
	}
	return img, nil
}

// encodeCheckpoint serializes the clock-floor checkpoint.
func encodeCheckpoint(geo geometry, w, appendSeq, now, epoch uint64) []byte {
	buf := append([]byte(nil), ckptMagic...)
	for _, v := range []uint64{
		uint64(geo.blockSize), uint64(geo.chunkBlocks), uint64(geo.segmentChunks),
		uint64(geo.userBlocks), w, appendSeq, now, epoch,
	} {
		buf = binary.AppendUvarint(buf, v)
	}
	var crcb [4]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.Checksum(buf, castagnoli))
	return append(buf, crcb[:]...)
}

// geometry is the store-geometry fingerprint stamped into checkpoints.
type geometry struct {
	blockSize     int
	chunkBlocks   int
	segmentChunks int
	userBlocks    int64
}

// checkpoint is a decoded checkpoint file.
type checkpoint struct {
	geo               geometry
	w, appendSeq, now uint64
	epoch             uint64
}

// decodeCheckpoint parses and validates a checkpoint file.
func decodeCheckpoint(data []byte) (checkpoint, error) {
	var ck checkpoint
	if len(data) < len(ckptMagic)+4 {
		return ck, fmt.Errorf("%w: short checkpoint", ErrCorrupt)
	}
	if string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return ck, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	payload, crcb := data[:len(data)-4], data[len(data)-4:]
	if binary.BigEndian.Uint32(crcb) != crc32.Checksum(payload, castagnoli) {
		return ck, fmt.Errorf("%w: checkpoint CRC", ErrCorrupt)
	}
	rest := payload[len(ckptMagic):]
	vals := make([]uint64, 8)
	for i := range vals {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return ck, fmt.Errorf("%w: checkpoint field %d", ErrCorrupt, i)
		}
		vals[i] = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return ck, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(rest))
	}
	ck.geo = geometry{
		blockSize:     int(vals[0]),
		chunkBlocks:   int(vals[1]),
		segmentChunks: int(vals[2]),
		userBlocks:    int64(vals[3]),
	}
	ck.w, ck.appendSeq, ck.now, ck.epoch = vals[4], vals[5], vals[6], vals[7]
	return ck, nil
}
