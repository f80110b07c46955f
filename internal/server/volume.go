package server

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// volFile is a volume's one byte store: its vol-N.dat (*os.File) when
// the server has a data dir, an anonymous plane mapping (*plane)
// without one. The tests park Sync behind it.
type volFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// plane is the RAM-only byte store: a zeroed mapping outside the Go heap
// (mapPlane), whose Sync has nothing to do and whose Close unmaps it.
type plane struct {
	mem   []byte
	unmap func() error
}

func (p *plane) ReadAt(dst []byte, off int64) (int, error) {
	if n := copy(dst, p.mem[off:]); n < len(dst) {
		return n, io.EOF
	}
	return len(dst), nil
}

func (p *plane) WriteAt(src []byte, off int64) (int, error) {
	if n := copy(p.mem[off:], src); n < len(src) {
		return n, io.ErrShortWrite
	}
	return len(src), nil
}

func (p *plane) Sync() error  { return nil }
func (p *plane) Close() error { return p.unmap() }

// volume is one tenant's block device: a contiguous slice of the shared
// array's LBA space, one byte store holding the payload (the lss store
// models placement and GC but never materializes data), a
// bounded-inflight admission semaphore, and per-tenant counters. With
// Config.DataDir set the store is the vol-N.dat file itself — the bytes
// live once, in its page cache — and an fsync lands before the ack, so
// an acked write survives a crash.
type volume struct {
	id         uint32
	base       int64 // first global LBA on the shared array
	blocks     int64 // volume-visible LBA count
	blockBytes int

	// sem bounds inflight admitted ops; a full semaphore rejects with
	// StatusBackpressure instead of queuing without bound.
	sem chan struct{}

	// data is the byte store. WriteAt runs under dataMu and ReadAt under
	// its read lock, so a READ overlapping a WRITE returns all old or all
	// new bytes — neither a page cache nor a memmove promises that across
	// a multi-block range. closeData sets data to nil under dataMu and
	// syncMu both, so a read, write or fsync that arrives later returns
	// ErrShuttingDown instead of touching a closed file or unmapped
	// memory.
	dataMu sync.RWMutex
	data   volFile

	// wseq counts completed writes and synced (under syncMu) is the wseq
	// the last finished fsync covers, so syncData can skip an fsync that
	// would add nothing — one group commit syncs a volume once — without
	// returning while the fsync covering its writes is in flight. syncErr
	// latches the first fsync failure: the kernel may drop the pages a
	// failed fsync covered and report success next time, so a retry
	// proves nothing and the volume stops acking instead.
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

// newVolume returns a volume with no byte store; the server attaches a
// plane or a file before serving.
func newVolume(id uint32, base, blocks int64, blockBytes, maxInflight int) *volume {
	return &volume{
		id:         id,
		base:       base,
		blocks:     blocks,
		blockBytes: blockBytes,
		sem:        make(chan struct{}, maxInflight),
	}
}

// size is the volume's byte length.
func (v *volume) size() int64 { return v.blocks * int64(v.blockBytes) }

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

// volumeFile is a vol-N.dat as boot sees it: a byte store it can size.
type volumeFile interface {
	volFile
	Truncate(size int64) error
}

// attachFile makes f the volume's byte store. Boot only sizes the file
// to the whole volume, so later WriteAt calls never grow it and a
// shorter file — first boot, or a crash before the tail was extended —
// reads as zeros past its old end, a block device's fresh-media
// semantics. It reads nothing: the bytes stay in the file, so a restart
// costs the same at any volume size.
func (v *volume) attachFile(f volumeFile) error {
	if err := f.Truncate(v.size()); err != nil {
		return fmt.Errorf("volume %d: size: %w", v.id, err)
	}
	v.data = f
	return nil
}

// writeData writes payload to the byte store at the volume-relative
// lba: the one write of the bytes, a pwrite with a data dir. Durability
// ordering is carried by the caller's syncData-before-ack.
func (v *volume) writeData(lba int64, payload []byte) error {
	if err := v.latched(); err != nil {
		return err
	}
	v.dataMu.Lock()
	defer v.dataMu.Unlock()
	if v.data == nil {
		return ErrShuttingDown
	}
	if _, err := v.data.WriteAt(payload, lba*int64(v.blockBytes)); err != nil {
		return fmt.Errorf("volume %d: write: %w", v.id, err)
	}
	v.wseq.Add(1)
	return nil
}

// appendData appends blocks starting at the volume-relative lba to dst,
// read straight from the byte store into dst's spare capacity — a pread
// into the reply with a data dir.
func (v *volume) appendData(dst []byte, lba int64, blocks int) ([]byte, error) {
	n := blocks * v.blockBytes
	head := len(dst)
	dst = slices.Grow(dst, n)[:head+n]
	v.dataMu.RLock()
	defer v.dataMu.RUnlock()
	if v.data == nil {
		return dst[:head], ErrShuttingDown
	}
	if _, err := v.data.ReadAt(dst[head:], lba*int64(v.blockBytes)); err != nil {
		return dst[:head], fmt.Errorf("volume %d: read: %w", v.id, err)
	}
	return dst, nil
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
	want := v.wseq.Load()
	v.syncMu.Lock()
	defer v.syncMu.Unlock()
	if err := v.latched(); err != nil || v.synced >= want {
		return err
	}
	if v.data == nil {
		return ErrShuttingDown
	}
	return v.syncLocked(v.data)
}

// syncLocked fsyncs f, the byte store, with syncMu held, latching a
// failure.
func (v *volume) syncLocked(f volFile) error {
	upto := v.wseq.Load()
	if err := f.Sync(); err != nil {
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

// closeData detaches the byte store, syncs what no fsync covers yet,
// and closes it — unmapping a plane; a second call closes nothing.
func (v *volume) closeData() error {
	v.syncMu.Lock()
	defer v.syncMu.Unlock()
	v.dataMu.Lock()
	f := v.data
	v.data = nil
	v.dataMu.Unlock()
	if f == nil {
		return nil
	}
	err := v.latched()
	if err == nil && v.synced < v.wseq.Load() {
		err = v.syncLocked(f)
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("volume %d: close: %w", v.id, cerr)
	}
	return err
}
