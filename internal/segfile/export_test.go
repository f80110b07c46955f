package segfile

import (
	"encoding/binary"
	"fmt"
)

// DirectLayout re-lays a segment file image the way the removed
// O_DIRECT append mode wrote it: the header block padded to align
// (dataStart = align) and every record followed by a pad record up to
// the next multiple of align. Only the parser's read side of that
// layout is left in the package; this is its test fixture.
func DirectLayout(data []byte, align int) ([]byte, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	off := h.dataStart
	h.dataStart = align
	out := encodeHeader(h)
	for off < len(data) {
		if len(data)-off < recordOverhead {
			return nil, fmt.Errorf("short record at %d", off)
		}
		end := off + int(binary.BigEndian.Uint32(data[off:])) + 8
		if end > len(data) {
			return nil, fmt.Errorf("record at %d overruns the file", off)
		}
		rec := data[off:end:end]
		if gap := align - len(rec)%align; gap != align {
			if gap < recordOverhead {
				gap += align
			}
			rec = appendRecord(rec, recPad, make([]byte, gap-recordOverhead))
		}
		out = append(out, rec...)
		off = end
	}
	return out, nil
}
