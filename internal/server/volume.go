package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// volFile is what a volume needs of its backing file; *os.File
// satisfies it, and the tests park Sync behind it.
type volFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// volume is one tenant's block device: a contiguous slice of the shared
// array's LBA space, a RAM data plane holding the payload bytes (the
// lss store models placement and GC but never materializes data), a
// bounded-inflight admission semaphore, and per-tenant counters. With
// Config.DataDir set the data plane is additionally backed by a
// vol-N.dat file: writes go through to the file and an fsync lands
// before the ack, so an acked write survives a crash.
type volume struct {
	id         uint32
	base       int64 // first global LBA on the shared array
	blocks     int64 // volume-visible LBA count
	blockBytes int

	// sem bounds inflight admitted ops; a full semaphore rejects with
	// StatusBackpressure instead of queuing without bound.
	sem chan struct{}

	// data is the RAM data plane, mapped outside the Go heap (mapPlane);
	// unmap releases it. Both go nil, under dataMu, when the server
	// releases its planes, and every later read or write of the plane
	// returns ErrShuttingDown instead of touching unmapped memory.
	dataMu sync.RWMutex
	data   []byte
	unmap  func() error

	// file is the durable backing file (nil without DataDir). wseq
	// counts completed write-throughs and synced (under syncMu) is the
	// wseq the last finished fsync covers, so syncData can skip an fsync
	// that would add nothing — one group commit syncs a volume once —
	// without returning while the fsync covering its writes is in flight.
	// syncErr latches the first fsync failure: the kernel may drop the
	// pages a failed fsync covered and report success next time, so a
	// retry proves nothing and the volume stops acking instead.
	file    volFile
	wseq    atomic.Int64
	syncMu  sync.Mutex
	synced  int64
	syncErr atomic.Pointer[error]

	// Per-tenant stats, all atomics (read by STAT while ops run).
	writes, reads, trims, flushes atomic.Int64
	writeBlocks, readBlocks       atomic.Int64
	trimBlocks                    atomic.Int64
	rejected                      atomic.Int64
	batches, batchedWrites        atomic.Int64
	// batchMark holds the last group-commit sequence that counted this
	// volume in batches, so a commit carrying several of the volume's
	// writes increments the counter once.
	batchMark atomic.Int64
}

func newVolume(id uint32, base, blocks int64, blockBytes, maxInflight int) (*volume, error) {
	data, unmap, err := mapPlane(int(blocks * int64(blockBytes)))
	if err != nil {
		return nil, fmt.Errorf("volume %d: map data plane: %w", id, err)
	}
	return &volume{
		id:         id,
		base:       base,
		blocks:     blocks,
		blockBytes: blockBytes,
		sem:        make(chan struct{}, maxInflight),
		data:       data,
		unmap:      unmap,
	}, nil
}

// releasePlane unmaps the data plane and returns its size; a second
// call releases nothing.
func (v *volume) releasePlane() (int, error) {
	v.dataMu.Lock()
	n, unmap := len(v.data), v.unmap
	v.data, v.unmap = nil, nil
	v.dataMu.Unlock()
	if unmap == nil {
		return 0, nil
	}
	if err := unmap(); err != nil {
		return n, fmt.Errorf("volume %d: unmap data plane: %w", v.id, err)
	}
	return n, nil
}

// admit tries to take one inflight slot; false means backpressure.
func (v *volume) admit() bool {
	select {
	case v.sem <- struct{}{}:
		return true
	default:
		v.rejected.Add(1)
		return false
	}
}

// release frees one inflight slot.
func (v *volume) release() { <-v.sem }

// check validates [lba, lba+blocks) against the volume: the one count
// and range check behind READ, WRITE and TRIM, whichever frontend
// carried them.
func (v *volume) check(lba int64, blocks int) error {
	switch {
	case blocks < 1:
		return ErrBadRequest
	case lba < 0 || lba >= v.blocks || int64(blocks) > v.blocks-lba:
		return ErrOutOfRange
	}
	return nil
}

// attachFile binds a backing file to the volume: existing bytes load
// into the RAM data plane (a shorter file — first boot, or a crash
// before the tail was extended — reads as zeros past its end, matching
// a block device's fresh-media semantics) and the file is sized to the
// full volume so later WriteAt calls never grow it.
func (v *volume) attachFile(f volFile) error {
	if _, err := f.ReadAt(v.data, 0); err != nil && err != io.EOF {
		return fmt.Errorf("volume %d: load: %w", v.id, err)
	}
	if err := f.Truncate(int64(len(v.data))); err != nil {
		return fmt.Errorf("volume %d: size: %w", v.id, err)
	}
	v.file = f
	return nil
}

// writeData copies payload into the volume's data plane at the
// volume-relative lba, writing through to the backing file when one is
// attached. The file write happens outside dataMu: ReadAt never sees
// the file, and durability ordering is carried by the caller's
// syncData-before-ack, not by the mutex.
func (v *volume) writeData(lba int64, payload []byte) error {
	if err := v.latched(); err != nil {
		return err
	}
	off := lba * int64(v.blockBytes)
	v.dataMu.Lock()
	if v.data == nil {
		v.dataMu.Unlock()
		return ErrShuttingDown
	}
	copy(v.data[off:], payload)
	v.dataMu.Unlock()
	if v.file != nil {
		if _, err := v.file.WriteAt(payload, off); err != nil {
			return fmt.Errorf("volume %d: write-through: %w", v.id, err)
		}
		v.wseq.Add(1)
	}
	return nil
}

// syncData makes every writeData that completed before the call
// durable: it returns only after an fsync that started after those
// writes has finished. Callers serialize on syncMu; one that finds its
// writes covered by the fsync it waited behind pays no second fsync, so
// a group commit touching one volume many times still syncs it once.
// The first fsync failure latches: it and every later syncData and
// writeData on the volume return that error, as lss.Store does with
// DurableErr.
func (v *volume) syncData() error {
	if v.file == nil {
		return nil
	}
	want := v.wseq.Load()
	v.syncMu.Lock()
	defer v.syncMu.Unlock()
	if err := v.latched(); err != nil || v.synced >= want {
		return err
	}
	upto := v.wseq.Load()
	if err := v.file.Sync(); err != nil {
		err = fmt.Errorf("volume %d: fsync: %w", v.id, err)
		v.syncErr.CompareAndSwap(nil, &err)
		return v.latched()
	}
	v.synced = upto
	return nil
}

// latched returns the volume's first fsync error, nil while healthy.
func (v *volume) latched() error {
	if p := v.syncErr.Load(); p != nil {
		return *p
	}
	return nil
}

// closeFile syncs and closes the backing file, if any.
func (v *volume) closeFile() error {
	if v.file == nil {
		return nil
	}
	serr := v.syncData()
	cerr := v.file.Close()
	v.file = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// appendData appends blocks starting at the volume-relative lba to dst
// — the plane's one copy on the way out.
func (v *volume) appendData(dst []byte, lba int64, blocks int) ([]byte, error) {
	off := lba * int64(v.blockBytes)
	n := int64(blocks) * int64(v.blockBytes)
	v.dataMu.RLock()
	if v.data == nil {
		v.dataMu.RUnlock()
		return dst, ErrShuttingDown
	}
	dst = append(dst, v.data[off:off+n]...)
	v.dataMu.RUnlock()
	return dst, nil
}
