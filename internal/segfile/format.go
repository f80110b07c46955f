package segfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"adapt/internal/lss"
)

// On-disk format, version 2. A shard's log is one file, segment.log,
// sized once at its creation — sparse, so untouched pages cost no disk
// — and never resized, renamed or truncated after that. It is the
// paper's log: one address space, with every segment id a fixed
// region of it:
//
//	file       = slot[0] | slot[1] | region[0] | … | region[R-1]
//	slot       = one page: magic8 "ADPTCKF2" | uvarint × 10 (block
//	             size, chunk blocks, segment chunks, user blocks,
//	             regions, seq, w, appendSeq, now, epoch) | u32 CRC32-C
//	region     = header | record* | zeros, whole pages (layout)
//	header     = magic8 "ADPTSEG2" | u32 segID | u32 group | u64 born |
//	             u64 epoch | u32 CRC32-C
//	record     = u32 len | u8 kind | body[len-1] |
//	             u32 CRC32-C(u64 epoch | kind | body)
//	chunk body = uvarint chunkIdx | uvarint w | uvarint now |
//	             uvarint slots | slots × (varint slotVal, varint ver)
//	seal body  = uvarint sealedW
//
// A region reads as its id's current incarnation — header, records,
// then zeros — or, when free, as zeros only. A free zeroes what the
// incarnation wrote, and only after the sync that made the victim's
// relocations durable; Open zeroes whatever else a crash left (a cut
// tail, a torn header, a half-zeroed free) before anything is
// appended, so no stale byte ever sits where a record could be read.
// The two checkpoint slots are written alternately, so a torn slot
// write can only destroy the older one; the valid slot with the higher
// seq wins. A slot holds the geometry the file was laid out for — the
// file is created with one, synced — the clock floors and the next
// incarnation epoch.
//
// Torn-write safety. Every record's CRC covers its incarnation's
// epoch, so a record of another incarnation never parses under a
// header: the parser stops at the first hole, bad CRC or short frame,
// and the region's durable image is that prefix. Chunk records must
// form a contiguous chunkIdx prefix, and a seal record is honoured
// only behind all SegmentChunks chunks (write-ahead seal, enforced by
// the parser rather than by a sync between the two).
//
// Versions. The magics' trailing digit is the format version. A region
// or slot of another version, or a directory of the one-file-per-
// segment version 1 layout (seg-NNNNN.seg files and a checkpoint
// file), is refused with ErrFormatVersion, which names both versions.

// formatVersion is the on-disk format this package reads and writes.
const formatVersion = 2

var (
	segMagic  = []byte("ADPTSEG2")
	ckptMagic = []byte("ADPTCKF2")
)

// castagnoli is the CRC32-C table, the same checksum discipline the
// wire protocol uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// logName is the one file of a shard's log.
	logName = "segment.log"

	// pageSize is the unit of the layout: slots and regions are whole
	// pages, the granularity at which a crash may tear a write.
	pageSize = 4096

	headerSize = 36

	recChunk = 1
	recSeal  = 2

	// recordOverhead = len prefix + kind + trailing CRC.
	recordOverhead = 9

	// maxGroups bounds the group count of the stores a log is laid out
	// for (DAC's and MiDA's counts are int8s): regions are sized before
	// any policy exists, and a sparse region nobody opens costs nothing.
	maxGroups = 128
)

// ErrCorrupt reports an unparseable region or checkpoint slot.
var ErrCorrupt = errors.New("segfile: corrupt file")

// ErrFormatVersion reports on-disk state written in a format version
// this package does not read.
var ErrFormatVersion = errors.New("segfile: unsupported on-disk format version")

// versionError names the version found and the one this package reads.
func versionError(what string, found byte) error {
	return fmt.Errorf("%w: %s is format v%c; this binary reads v%d", ErrFormatVersion, what, found, formatVersion)
}

// checkMagic validates an 8-byte magic: the right kind and version
// passes, the right kind of another version is ErrFormatVersion, and
// anything else ErrCorrupt.
func checkMagic(got, want []byte, what string) error {
	if string(got[:7]) != string(want[:7]) {
		return fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, what, got[:8])
	}
	if got[7] != want[7] {
		if got[7] >= '0' && got[7] <= '9' {
			return versionError(what, got[7])
		}
		return fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, what, got[:8])
	}
	return nil
}

// isV1Name reports a file name of the version 1 layout: a segment file
// or the checkpoint file replaced by rename.
func isV1Name(name string) bool {
	switch name {
	case "checkpoint", "checkpoint.tmp":
		return true
	}
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")
}

// geometry is the store-geometry fingerprint stamped into the slots:
// the fields that lay the file out.
type geometry struct {
	blockSize     int
	chunkBlocks   int
	segmentChunks int
	userBlocks    int64
	regions       int
}

// layout places segment regions in the file.
type layout struct {
	geometry
	regionBytes int64
}

// newLayout lays out a log for cfg: regions for the segment count of a
// maxGroups-group store (background GC's deeper cushion included),
// each large enough for a header, SegmentChunks maximal chunk records
// and a seal record.
func newLayout(cfg lss.Config) layout {
	cfg = cfg.GeometryDefaults()
	cfg.BackgroundGC = true
	maxChunk := recordOverhead + 4*binary.MaxVarintLen64 + 2*cfg.ChunkBlocks*binary.MaxVarintLen64
	maxSeal := recordOverhead + binary.MaxVarintLen64
	bytes := int64(headerSize + cfg.SegmentChunks*maxChunk + maxSeal)
	return layout{
		geometry: geometry{
			blockSize:     cfg.BlockSize,
			chunkBlocks:   cfg.ChunkBlocks,
			segmentChunks: cfg.SegmentChunks,
			userBlocks:    cfg.UserBlocks,
			regions:       cfg.TotalSegments(maxGroups),
		},
		regionBytes: (bytes + pageSize - 1) / pageSize * pageSize,
	}
}

// regionOff is the file offset of region id.
func (l layout) regionOff(id int) int64 { return 2*pageSize + int64(id)*l.regionBytes }

// slotOff is the file offset of checkpoint slot seq%2.
func slotOff(seq uint64) int64 { return int64(seq%2) * pageSize }

// fileBytes is the log file's size.
func (l layout) fileBytes() int64 { return l.regionOff(l.regions) }

// segHeader is the decoded region header of one incarnation.
type segHeader struct {
	segID int
	group int
	born  uint64
	epoch uint64
}

// encodeHeader serializes h.
func encodeHeader(h segHeader) []byte {
	buf := make([]byte, headerSize)
	copy(buf, segMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(h.segID))
	binary.BigEndian.PutUint32(buf[12:], uint32(h.group))
	binary.BigEndian.PutUint64(buf[16:], h.born)
	binary.BigEndian.PutUint64(buf[24:], h.epoch)
	binary.BigEndian.PutUint32(buf[32:], crc32.Checksum(buf[:32], castagnoli))
	return buf
}

// decodeHeader parses and validates a region header.
func decodeHeader(data []byte) (segHeader, error) {
	if len(data) < headerSize {
		return segHeader{}, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	if err := checkMagic(data, segMagic, "segment region"); err != nil {
		return segHeader{}, err
	}
	if got, want := binary.BigEndian.Uint32(data[32:36]), crc32.Checksum(data[:32], castagnoli); got != want {
		return segHeader{}, fmt.Errorf("%w: header CRC %08x != %08x", ErrCorrupt, got, want)
	}
	return segHeader{
		segID: int(binary.BigEndian.Uint32(data[8:])),
		group: int(binary.BigEndian.Uint32(data[12:])),
		born:  binary.BigEndian.Uint64(data[16:]),
		epoch: binary.BigEndian.Uint64(data[24:]),
	}, nil
}

// recordCRC is a record's checksum: the incarnation's epoch, then the
// kind and body.
func recordCRC(epoch uint64, payload []byte) uint32 {
	var eb [8]byte
	binary.BigEndian.PutUint64(eb[:], epoch)
	return crc32.Update(crc32.Checksum(eb[:], castagnoli), castagnoli, payload)
}

// appendRecord appends one framed record of incarnation epoch.
func appendRecord(dst []byte, epoch uint64, kind byte, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(body)))
	start := len(dst)
	dst = append(dst, kind)
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, recordCRC(epoch, dst[start:]))
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

// segImage is the durable state parsed out of one region: the
// contiguous chunk prefix of its incarnation, whether a seal record
// honoured behind all of them followed, and where the valid prefix
// ends — everything past validLen up to the region's end should be
// zeros.
type segImage struct {
	header   segHeader
	chunks   []chunkRecord
	sealed   bool
	sealedW  uint64
	validLen int64
	torn     int // records dropped at the tail (bad CRC / hole / short / invalid)
}

// parseRegion walks region id's bytes. It returns nil for a free
// region (zero header bytes) and an error when the header is
// unreadable or names another id; record-level damage cuts the image
// short rather than failing it. A zero length prefix ends the records. Chunk records must carry chunkBlocks
// slots, at most segmentChunks of them form the prefix, and a seal
// record counts only behind all segmentChunks.
func parseRegion(data []byte, id int, geo geometry) (*segImage, error) {
	if allZero(data[:headerSize]) {
		return nil, nil
	}
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if h.segID != id {
		return nil, fmt.Errorf("%w: region %d holds a header for segment %d", ErrCorrupt, id, h.segID)
	}
	img := &segImage{header: h, validLen: headerSize}
	off := headerSize
	for off+4 <= len(data) && binary.BigEndian.Uint32(data[off:]) != 0 {
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
		if binary.BigEndian.Uint32(data[off+4+rlen:]) != recordCRC(h.epoch, payload) {
			img.torn++
			return img, nil
		}
		switch payload[0] {
		case recChunk:
			rec, err := decodeChunkBody(payload[1:])
			if err != nil || rec.chunk != len(img.chunks) || len(img.chunks) == geo.segmentChunks ||
				len(rec.lbas) != geo.chunkBlocks {
				// Undecodable, out of order, surplus or of another
				// geometry: the durable prefix ends here.
				img.torn++
				return img, nil
			}
			img.chunks = append(img.chunks, rec)
		case recSeal:
			sealedW, n := binary.Uvarint(payload[1:])
			if n <= 0 || len(img.chunks) != geo.segmentChunks {
				// A seal without its full complement of chunks can only
				// come from corruption (seals are write-ahead): drop it,
				// or appends after recovery would land behind it.
				img.torn++
				return img, nil
			}
			img.sealed = true
			img.sealedW = sealedW
			img.validLen = int64(off + rlen + 8)
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

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// checkpoint is a decoded checkpoint slot.
type checkpoint struct {
	geo               geometry
	seq               uint64
	w, appendSeq, now uint64
	epoch             uint64
}

// encodeCheckpoint serializes a checkpoint slot.
func encodeCheckpoint(ck checkpoint) []byte {
	buf := append([]byte(nil), ckptMagic...)
	for _, v := range []uint64{
		uint64(ck.geo.blockSize), uint64(ck.geo.chunkBlocks), uint64(ck.geo.segmentChunks),
		uint64(ck.geo.userBlocks), uint64(ck.geo.regions),
		ck.seq, ck.w, ck.appendSeq, ck.now, ck.epoch,
	} {
		buf = binary.AppendUvarint(buf, v)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeCheckpoint parses and validates a checkpoint slot page; the
// bytes past the slot's CRC are zero.
func decodeCheckpoint(data []byte) (checkpoint, error) {
	var ck checkpoint
	if len(data) < len(ckptMagic)+4 {
		return ck, fmt.Errorf("%w: short checkpoint", ErrCorrupt)
	}
	if err := checkMagic(data, ckptMagic, "checkpoint slot"); err != nil {
		return ck, err
	}
	rest := data[len(ckptMagic):]
	vals := make([]uint64, 10)
	for i := range vals {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return ck, fmt.Errorf("%w: checkpoint field %d", ErrCorrupt, i)
		}
		vals[i] = v
		rest = rest[n:]
	}
	end := len(data) - len(rest)
	if len(rest) < 4 || binary.BigEndian.Uint32(rest) != crc32.Checksum(data[:end], castagnoli) {
		return ck, fmt.Errorf("%w: checkpoint CRC", ErrCorrupt)
	}
	ck.geo = geometry{
		blockSize:     int(vals[0]),
		chunkBlocks:   int(vals[1]),
		segmentChunks: int(vals[2]),
		userBlocks:    int64(vals[3]),
		regions:       int(vals[4]),
	}
	ck.seq, ck.w, ck.appendSeq, ck.now, ck.epoch = vals[5], vals[6], vals[7], vals[8], vals[9]
	return ck, nil
}
