// Package blockdev models the SSD array beneath the log-structured
// store. Two models are provided:
//
//   - Array: a fast accounting-only model used by the trace-driven
//     simulator. It tracks data/padding/parity chunk traffic and
//     per-column balance at chunk granularity (the array's minimum
//     write unit, §2.2).
//   - DataArray: a byte-accurate in-memory RAID-5 array with real XOR
//     parity and single-column reconstruction, used by the prototype
//     and by the parity property tests.
package blockdev

import (
	"errors"
	"fmt"
)

// Array is the accounting model of a RAID-5 SSD array. Chunks are
// appended round-robin across data columns; every DataColumns data
// chunks complete a stripe and generate one parity chunk on a rotating
// parity column (left-symmetric layout).
type Array struct {
	dataColumns int
	chunkBytes  int64

	dataChunks   int64
	parityChunks int64
	dataBytes    int64 // payload bytes (user + GC + shadow)
	padBytes     int64 // zero padding bytes

	colWrites  []int64 // chunk writes per physical column (data+parity)
	stripeFill int     // data chunks in the currently forming stripe
	nextCol    int     // next data column (among non-parity positions)
	parityRow  int64   // stripe counter, determines parity column
}

// NewArray builds an accounting array with dataColumns data columns
// (total columns = dataColumns+1 including parity) and the given chunk
// size in bytes.
func NewArray(dataColumns int, chunkBytes int64) *Array {
	if dataColumns < 1 {
		panic("blockdev: need at least one data column")
	}
	if chunkBytes <= 0 {
		panic("blockdev: chunk size must be positive")
	}
	return &Array{
		dataColumns: dataColumns,
		chunkBytes:  chunkBytes,
		colWrites:   make([]int64, dataColumns+1),
	}
}

// DataColumns returns the number of data columns per stripe.
func (a *Array) DataColumns() int { return a.dataColumns }

// ChunkBytes returns the chunk size in bytes.
func (a *Array) ChunkBytes() int64 { return a.chunkBytes }

// WriteChunk records one chunk write containing payloadBytes of real
// data and padBytes of zero padding. payloadBytes+padBytes must equal
// the chunk size: the array only accepts full chunks (partial writes
// have already been padded by the log-structured layer). It returns
// the physical column the chunk landed on and, when the chunk closed
// its stripe, the column that stripe's parity went to (-1 otherwise).
func (a *Array) WriteChunk(payloadBytes, padBytes int64) (dataCol, parityCol int) {
	if payloadBytes+padBytes != a.chunkBytes {
		panic(fmt.Sprintf("blockdev: chunk write of %d+%d bytes, want %d",
			payloadBytes, padBytes, a.chunkBytes))
	}
	a.dataChunks++
	a.dataBytes += payloadBytes
	a.padBytes += padBytes

	// Left-symmetric RAID-5: parity column rotates per stripe.
	parityCol = int(a.parityRow % int64(a.dataColumns+1))
	dataCol = a.nextCol
	if dataCol >= parityCol {
		dataCol++ // skip the parity position
	}
	a.colWrites[dataCol]++
	a.stripeFill++
	a.nextCol++
	if a.stripeFill < a.dataColumns {
		return dataCol, -1
	}
	a.parityChunks++
	a.colWrites[parityCol]++
	a.stripeFill = 0
	a.nextCol = 0
	a.parityRow++
	return dataCol, parityCol
}

// DataChunks returns the number of data chunks written.
func (a *Array) DataChunks() int64 { return a.dataChunks }

// ParityChunks returns the number of parity chunks written.
func (a *Array) ParityChunks() int64 { return a.parityChunks }

// PayloadBytes returns real payload bytes written (excludes padding).
func (a *Array) PayloadBytes() int64 { return a.dataBytes }

// PaddingBytes returns zero-padding bytes written.
func (a *Array) PaddingBytes() int64 { return a.padBytes }

// TotalBytes returns all bytes written to the array including padding
// and parity.
func (a *Array) TotalBytes() int64 {
	return (a.dataChunks + a.parityChunks) * a.chunkBytes
}

// ColumnWrites returns a copy of per-column chunk-write counters.
func (a *Array) ColumnWrites() []int64 {
	out := make([]int64, len(a.colWrites))
	copy(out, a.colWrites)
	return out
}

// ErrBadStripe is returned by DataArray operations on malformed input.
var ErrBadStripe = errors.New("blockdev: malformed stripe")

// ErrDoubleFault is returned when an operation would require data
// from two simultaneously unavailable columns — the failure mode
// RAID-5 cannot survive.
var ErrDoubleFault = errors.New("blockdev: double column fault exceeds RAID-5 redundancy")

// DataArray is a byte-accurate in-memory RAID-5 array. It stores full
// stripes (DataColumns data chunks plus one XOR parity chunk, rotating
// parity position) and can reconstruct any single lost column. One
// column may be marked failed: its contents are discarded, reads of it
// are served by XOR reconstruction from the survivors (degraded
// reads), and an incremental rebuild restores the column onto a spare
// stripe by stripe.
type DataArray struct {
	dataColumns int
	chunkBytes  int
	// disks[col] is the sequence of chunks written to that column.
	// Entries of a failed column are nil until the rebuild completes.
	disks [][][]byte
	rows  int64

	// failed is the failed column, or -1 when healthy.
	failed int
	// spare accumulates the replacement contents of the failed column:
	// rebuild fills pre-failure rows by reconstruction, WriteStripe
	// fills post-failure rows directly (no reconstruction needed).
	spare [][]byte
	// rebuildCursor is the next row the incremental rebuild will visit.
	rebuildCursor int64
	degradedReads int64
	rebuiltChunks int64
}

// NewDataArray builds a byte-accurate array.
func NewDataArray(dataColumns, chunkBytes int) *DataArray {
	if dataColumns < 1 || chunkBytes <= 0 {
		panic("blockdev: invalid DataArray geometry")
	}
	return &DataArray{
		dataColumns: dataColumns,
		chunkBytes:  chunkBytes,
		disks:       make([][][]byte, dataColumns+1),
		failed:      -1,
	}
}

// ChunkBytes returns the chunk size in bytes.
func (d *DataArray) ChunkBytes() int { return d.chunkBytes }

// Rows returns the number of stripes written.
func (d *DataArray) Rows() int64 { return d.rows }

// WriteStripe stores one full stripe of DataColumns chunks, computing
// and storing XOR parity on the rotating parity column. Each chunk
// must be exactly ChunkBytes long. The chunks are copied.
func (d *DataArray) WriteStripe(chunks [][]byte) error {
	if len(chunks) != d.dataColumns {
		return fmt.Errorf("%w: %d chunks, want %d", ErrBadStripe, len(chunks), d.dataColumns)
	}
	for _, c := range chunks {
		if len(c) != d.chunkBytes {
			return fmt.Errorf("%w: chunk of %d bytes, want %d", ErrBadStripe, len(c), d.chunkBytes)
		}
	}
	parity := make([]byte, d.chunkBytes)
	for _, c := range chunks {
		for i, b := range c {
			parity[i] ^= b
		}
	}
	parityCol := int(d.rows % int64(d.dataColumns+1))
	ci := 0
	for col := 0; col <= d.dataColumns; col++ {
		var payload []byte
		if col == parityCol {
			payload = parity
		} else {
			payload = append([]byte(nil), chunks[ci]...)
			ci++
		}
		if col == d.failed {
			// The failed disk cannot store the chunk; the spare takes it
			// directly, so post-failure rows never need reconstruction.
			d.disks[col] = append(d.disks[col], nil)
			d.spare = append(d.spare, payload)
		} else {
			d.disks[col] = append(d.disks[col], payload)
		}
	}
	d.rows++
	return nil
}

// FailColumn marks col as failed, discarding its contents. A second
// concurrent failure returns ErrDoubleFault (RAID-5 survives one).
func (d *DataArray) FailColumn(col int) error {
	if col < 0 || col > d.dataColumns {
		return fmt.Errorf("%w: column %d", ErrBadStripe, col)
	}
	if d.failed >= 0 {
		return fmt.Errorf("%w: column %d already failed", ErrDoubleFault, d.failed)
	}
	d.failed = col
	for i := range d.disks[col] {
		d.disks[col][i] = nil
	}
	d.spare = make([][]byte, d.rows)
	d.rebuildCursor = 0
	return nil
}

// FailedColumn returns the failed column index, or -1 when healthy.
func (d *DataArray) FailedColumn() int { return d.failed }

// DegradedReads returns how many chunk reads were served by XOR
// reconstruction because their column was failed and not yet rebuilt.
func (d *DataArray) DegradedReads() int64 { return d.degradedReads }

// RebuiltChunks returns how many chunks the rebuild reconstructed.
func (d *DataArray) RebuiltChunks() int64 { return d.rebuiltChunks }

// RebuildProgress reports the incremental rebuild position: rows the
// rebuild cursor has passed and the total rows it must cover. Both are
// zero on a healthy array.
func (d *DataArray) RebuildProgress() (done, total int64) {
	if d.failed < 0 {
		return 0, 0
	}
	return d.rebuildCursor, d.rows
}

// reconstruct XORs all surviving columns of row into a new chunk —
// the contents of the one missing column.
func (d *DataArray) reconstruct(row int64, lostCol int) []byte {
	out := make([]byte, d.chunkBytes)
	for col := 0; col <= d.dataColumns; col++ {
		if col == lostCol {
			continue
		}
		for i, b := range d.disks[col][row] {
			out[i] ^= b
		}
	}
	return out
}

// spareChunk returns the failed column's content for row from the
// spare, reconstructing (and recording a degraded read) when the
// rebuild has not reached the row yet.
func (d *DataArray) spareChunk(row int64) []byte {
	if c := d.spare[row]; c != nil {
		return c
	}
	d.degradedReads++
	return d.reconstruct(row, d.failed)
}

// RebuildStep advances the incremental rebuild by at most maxChunks
// reconstructions, walking rows in order onto the spare. It returns
// how many chunks were actually reconstructed (rows already present
// in the spare cost nothing) and whether the rebuild is complete;
// completion swaps the spare in and returns the array to healthy. On
// a healthy array it reports (0, true, nil).
func (d *DataArray) RebuildStep(maxChunks int) (rebuilt int, done bool, err error) {
	if d.failed < 0 {
		return 0, true, nil
	}
	if maxChunks < 1 {
		return 0, false, fmt.Errorf("%w: rebuild step of %d chunks", ErrBadStripe, maxChunks)
	}
	for d.rebuildCursor < d.rows && rebuilt < maxChunks {
		row := d.rebuildCursor
		if d.spare[row] == nil {
			d.spare[row] = d.reconstruct(row, d.failed)
			rebuilt++
			d.rebuiltChunks++
		}
		d.rebuildCursor++
	}
	if d.rebuildCursor < d.rows {
		return rebuilt, false, nil
	}
	// Rebuild complete: the spare becomes the column.
	copy(d.disks[d.failed], d.spare)
	d.failed = -1
	d.spare = nil
	d.rebuildCursor = 0
	return rebuilt, true, nil
}

// ReadChunk returns the idx-th data chunk of stripe row (0-based,
// skipping the parity column). When the chunk's column is failed the
// read is served from the spare or, before the rebuild reaches the
// row, by degraded XOR reconstruction.
func (d *DataArray) ReadChunk(row int64, idx int) ([]byte, error) {
	if row < 0 || row >= d.rows || idx < 0 || idx >= d.dataColumns {
		return nil, fmt.Errorf("%w: row %d idx %d", ErrBadStripe, row, idx)
	}
	parityCol := int(row % int64(d.dataColumns+1))
	col := idx
	if col >= parityCol {
		col++
	}
	if col == d.failed {
		return d.spareChunk(row), nil
	}
	return d.disks[col][row], nil
}

// CheckParity verifies that every stripe XORs to zero across all
// columns — the invariant XOR parity must maintain through writes,
// failures, and rebuilds. On a degraded array the failed column's
// contribution comes from the spare when the rebuild (or a
// post-failure write) has filled the row; rows whose failed-column
// content is still unknown are vacuously consistent and are skipped.
// It is O(rows × columns × chunk) and exists for the correctness
// checker, not the data path.
func (d *DataArray) CheckParity() error {
	acc := make([]byte, d.chunkBytes)
	for row := int64(0); row < d.rows; row++ {
		for i := range acc {
			acc[i] = 0
		}
		known := true
		for col := 0; col <= d.dataColumns; col++ {
			chunk := d.disks[col][row]
			if col == d.failed {
				chunk = d.spare[row]
			}
			if chunk == nil {
				known = false
				break
			}
			for i, b := range chunk {
				acc[i] ^= b
			}
		}
		if !known {
			continue
		}
		for i, b := range acc {
			if b != 0 {
				return fmt.Errorf("%w: row %d parity mismatch at byte %d", ErrBadStripe, row, i)
			}
		}
	}
	return nil
}

// ReconstructColumn recomputes the contents of a lost column for the
// given stripe row by XOR of all surviving columns — the RAID-5
// recovery path. With a failed column, only that column can be
// reconstructed; asking for any other is a double fault.
func (d *DataArray) ReconstructColumn(row int64, lostCol int) ([]byte, error) {
	if row < 0 || row >= d.rows || lostCol < 0 || lostCol > d.dataColumns {
		return nil, fmt.Errorf("%w: row %d col %d", ErrBadStripe, row, lostCol)
	}
	if d.failed >= 0 && lostCol != d.failed {
		return nil, fmt.Errorf("%w: column %d failed, cannot also lose %d", ErrDoubleFault, d.failed, lostCol)
	}
	if lostCol == d.failed {
		return d.spareChunk(row), nil
	}
	return d.reconstruct(row, lostCol), nil
}
