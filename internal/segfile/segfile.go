package segfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// SyncMode selects the fsync discipline.
type SyncMode int

const (
	// SyncAlways syncs after every appended chunk: an acknowledged
	// chunk is durable the moment AppendChunk returns. This is the mode
	// with the zero-lost-acks guarantee and the one the crash sweep
	// proves exact.
	SyncAlways SyncMode = iota
	// SyncOnSeal defers data syncs to the log commit (commit.go): a
	// commit syncs the log file once, covering every seal and append
	// before it, so a GC victim is never destroyed before its migrated
	// blocks persist. Open-segment tails may be lost in a crash;
	// recovery still converges to a consistent prefix.
	SyncOnSeal
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncOnSeal:
		return "seal"
	default:
		return fmt.Sprintf("sync(%d)", int(m))
	}
}

// ParseSyncMode parses a -durable-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "seal":
		return SyncOnSeal, nil
	default:
		return 0, fmt.Errorf("segfile: unknown sync mode %q (want always|seal)", s)
	}
}

// Options configures a file-backed segment store.
type Options struct {
	// Dir is the backing directory (created if absent). Ignored when FS
	// is set.
	Dir string
	// FS overrides the backing filesystem (tests inject MemFS/CrashFS).
	FS FS
	// Sync is the fsync discipline; the zero value is SyncAlways.
	Sync SyncMode
	// CheckpointEverySeals owes the next commit a clock-floor
	// checkpoint every N segment seals (in addition to explicit
	// Checkpoint calls), and makes a commit Pending once N seals wait
	// for a sync. Zero means 16; negative disables both.
	CheckpointEverySeals int
	// Geometry lays the log file out (its zero fields take
	// Config.GeometryDefaults' values) and is stamped into its
	// checkpoint slots, so a log written with another geometry is
	// refused before anything is read into a store. Pass the store's
	// Config.
	Geometry lss.Config
	// Telemetry registers the lss_durable_* instruments on the set.
	Telemetry *telemetry.Set
	// Sharded/Shard label the instruments with {shard="id"}, exactly as
	// lss.Deps does for the store's own metrics.
	Sharded bool
	Shard   int
}

// region is the live append state of one segment id's incarnation.
type region struct {
	id     int
	epoch  uint64
	off    int64 // file offset of the next record
	chunks int
	sealed bool
}

// Store is the file-backed segment store: one log file whose regions
// are the segment ids (format.go). It implements lss.LogCommitter and
// is driven by a single lss.Store under that store's lock: every
// method but the off-lock phase of CommitOutside and the Stats
// counters (atomic because telemetry scrapes read them concurrently)
// runs with the caller's lock held.
type Store struct {
	fs   FS
	f    File
	opts Options
	lay  layout

	segs  map[int]*region
	epoch uint64 // next incarnation epoch

	// Scan results from Open, consumed by Recover.
	images       map[int]*segImage
	ckpt         *checkpoint
	corruptFiles int64

	// slotSeq is the seq of the newest checkpoint slot; the next one
	// goes to the other slot.
	slotSeq uint64
	// Clock floors cached from the latest append, for cadence-driven
	// checkpoints between explicit Checkpoint calls.
	lastW, lastSeq, lastNow uint64
	sealsSinceCkpt          int

	// Recorded, not yet committed: victims FreeSegment queued (in free
	// order), retiring holds every freed id until a commit hands it
	// back (queued or inside a batch), seals counts the seal records
	// no commit took yet, ckptDue marks a checkpoint owed. pending is
	// set by a free, an explicit checkpoint or a full count of waiting
	// seals — the work a committer must not leave for later — and
	// cleared when a commit takes it, so a committer can skip an idle
	// log without the lock. dirty marks writes no sync has been started
	// for.
	victims  []victim
	retiring map[int]bool
	seals    int
	ckptDue  bool
	pending  atomic.Bool
	dirty    bool

	// commitMu is held by the one commit whose syscalls are running;
	// commitErr (guarded by it) is the first commit failure, after
	// which no later batch runs. Finished batches wait in done, under
	// doneMu, for the hand-back under the caller's lock.
	commitMu  sync.Mutex
	commitErr error
	doneMu    sync.Mutex
	done      []*batch

	fsyncs          atomic.Int64
	dirSyncs        atomic.Int64
	syncedSegments  atomic.Int64
	checkpoints     atomic.Int64
	bytesWritten    atomic.Int64
	recoveredSegs   atomic.Int64
	recoveredBlocks atomic.Int64
	tornRecords     atomic.Int64

	// hist is the one fsync-latency histogram: Stats reads its
	// quantiles, and it is the instrument the telemetry set exports.
	hist   *telemetry.Histogram
	closed bool
}

var _ lss.LogCommitter = (*Store)(nil)

// Open opens (or creates) the backing directory's log file and scans
// it for durable segment state, zeroing what a crash left behind the
// valid records so appends can continue. Call Recover next when
// HasData reports existing state; build a fresh store with
// lss.New(..., Deps{Durable: st}) otherwise. A directory in another
// format version is refused with ErrFormatVersion.
func Open(opts Options) (*Store, error) {
	if opts.CheckpointEverySeals == 0 {
		opts.CheckpointEverySeals = 16
	}
	opts.Geometry = opts.Geometry.GeometryDefaults()
	st := &Store{
		fs:       opts.FS,
		opts:     opts,
		lay:      newLayout(opts.Geometry),
		segs:     make(map[int]*region),
		retiring: make(map[int]bool),
		images:   make(map[int]*segImage),
		epoch:    1,
	}
	if st.fs == nil {
		if opts.Dir == "" {
			return nil, fmt.Errorf("segfile: Options.Dir or Options.FS required")
		}
		dfs, err := NewDirFS(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("segfile: open dir: %w", err)
		}
		st.fs = dfs
	}
	names, err := st.fs.ReadDir()
	if err != nil {
		return nil, fmt.Errorf("segfile: scan: %w", err)
	}
	exists := false
	for _, name := range names {
		if isV1Name(name) {
			return nil, fmt.Errorf("%w: %s is format v1; this binary reads v%d", ErrFormatVersion, name, formatVersion)
		}
		exists = exists || name == logName
	}
	if exists {
		err = st.scan()
	} else {
		err = st.create()
	}
	if err != nil {
		if st.f != nil {
			_ = st.f.Close()
		}
		return nil, err
	}
	st.attachTelemetry()
	return st, nil
}

// create makes the log file: sized once, its first checkpoint slot
// stamped with the geometry, then the file and its directory entry
// synced.
func (st *Store) create() error {
	f, err := st.fs.OpenFile(logName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segfile: create log: %w", err)
	}
	st.f = f
	if err := f.Truncate(st.lay.fileBytes()); err != nil {
		return fmt.Errorf("segfile: size log: %w", err)
	}
	if err := st.writeSlot(st.nextSlot()); err != nil {
		return fmt.Errorf("segfile: create log: %w", err)
	}
	return st.bootSync()
}

// bootSync ends a boot: it syncs the log file, then the directory — a
// predecessor killed between creating the file and syncing its name
// leaves one this process can see but a power cut could still lose.
func (st *Store) bootSync() error {
	if err := st.timedSync(); err != nil {
		return err
	}
	if err := st.fs.SyncDir(); err != nil {
		return err
	}
	st.dirSyncs.Add(1)
	return nil
}

// scan reads the checkpoint slots and every region of an existing log,
// refuses one laid out for another geometry, and zeroes whatever does
// not belong to a region's valid image — a cut tail, an unreadable
// header, a half-zeroed free — so the file is back to its invariant
// (format.go) before anything is appended. It ends with the boot sync.
func (st *Store) scan() error {
	f, err := st.fs.OpenFile(logName, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("segfile: scan: %w", err)
	}
	st.f = f
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("segfile: scan: %w", err)
	}
	page := make([]byte, pageSize)
	for seq := uint64(0); seq < 2; seq++ {
		if err := st.readAt(page, slotOff(seq)); err != nil {
			return err
		}
		if allZero(page) {
			continue
		}
		ck, err := decodeCheckpoint(page)
		if err != nil {
			if errors.Is(err, ErrFormatVersion) {
				return err
			}
			// A torn slot write loses only that slot; the other is
			// the newer valid one, or the regions alone recover.
			st.corruptFiles++
			continue
		}
		if st.ckpt == nil || ck.seq > st.ckpt.seq {
			st.ckpt = &ck
		}
	}
	if ck := st.ckpt; ck != nil {
		if ck.geo != st.lay.geometry {
			return fmt.Errorf("segfile: log laid out for %+v, configuration needs %+v", ck.geo, st.lay.geometry)
		}
		st.slotSeq = ck.seq
		st.lastW, st.lastSeq, st.lastNow = ck.w, ck.appendSeq, ck.now
		st.epoch = max(st.epoch, ck.epoch)
	}
	switch want := st.lay.fileBytes(); {
	case size > want:
		return fmt.Errorf("segfile: log is %d bytes, geometry %+v lays out %d", size, st.lay.geometry, want)
	case size < want:
		// Short only if its creation never synced: what is there reads
		// on, and the rest of the file is the zeros it was sized with.
		if err := f.Truncate(want); err != nil {
			return fmt.Errorf("segfile: size log: %w", err)
		}
	}
	buf := make([]byte, st.lay.regionBytes)
	for id := 0; id < st.lay.regions; id++ {
		off := st.lay.regionOff(id)
		if err := st.readAt(buf, off); err != nil {
			return err
		}
		img, err := parseRegion(buf, id, st.lay.geometry)
		switch {
		case errors.Is(err, ErrFormatVersion):
			return err
		case err != nil:
			// Unreadable header (or one claiming another id): nothing
			// durable is recoverable from this region.
			st.corruptFiles++
			err = st.zero(buf, off, 0)
		case img == nil:
			// Free; a crash inside a free may have left it half zeroed.
			if !allZero(buf) {
				st.tornRecords.Add(1)
				err = st.zero(buf, off, 0)
			}
		default:
			if !allZero(buf[img.validLen:]) {
				img.torn = max(img.torn, 1)
				err = st.zero(buf, off, img.validLen)
			}
			st.tornRecords.Add(int64(img.torn))
			st.images[id] = img
			st.segs[id] = &region{
				id:     id,
				epoch:  img.header.epoch,
				off:    off + img.validLen,
				chunks: len(img.chunks),
				sealed: img.sealed,
			}
			st.epoch = max(st.epoch, img.header.epoch+1)
		}
		if err != nil {
			return fmt.Errorf("segfile: scan region %d: %w", id, err)
		}
	}
	return st.bootSync()
}

// readAt fills buf from the log at off; bytes past the end read as the
// zeros a sized file holds there.
func (st *Store) readAt(buf []byte, off int64) error {
	n, err := st.f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("segfile: read log at %d: %w", off, err)
	}
	clear(buf[n:])
	return nil
}

// zero overwrites region bytes buf[from:] (the region at off) with
// zeros, skipping a leading all-zero stretch.
func (st *Store) zero(buf []byte, off, from int64) error {
	for from < int64(len(buf)) && buf[from] == 0 {
		from++
	}
	z := make([]byte, int64(len(buf))-from)
	_, err := st.f.WriteAt(z, off+from)
	return err
}

// HasData reports whether the directory held recoverable state —
// decide between Recover and a fresh lss.New on it.
func (st *Store) HasData() bool { return len(st.images) > 0 || st.ckpt != nil }

// Close commits what is recorded (seals, frees, a due checkpoint),
// syncs any appends no commit covered and closes the file; call it
// with the caller's lock held, like every other method. It waits out a
// commit already running. lss.Store.Drain checkpoints through the
// DurableLog hook before the engine closes its backend.
func (st *Store) Close() error {
	if st.closed {
		return nil
	}
	_, firstErr := st.Commit()
	st.closed = true
	if st.dirty && firstErr == nil {
		st.dirty = false
		firstErr = st.timedSync()
	}
	if err := st.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// fsyncBounds are the fsync-latency histogram bucket upper bounds in
// nanoseconds: 10 µs .. 1 s in decades, bracketing both tmpfs (~µs)
// and spinning storage (~ms).
var fsyncBounds = []int64{
	10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// timedSync syncs the log file, counting the call and observing its
// latency.
func (st *Store) timedSync() error {
	start := time.Now()
	if err := st.f.Sync(); err != nil {
		return err
	}
	st.fsyncs.Add(1)
	st.hist.Observe(time.Since(start).Nanoseconds())
	return nil
}

// write writes pre-framed bytes at the region's append offset.
func (st *Store) write(r *region, rec []byte) error {
	if r.off+int64(len(rec)) > st.lay.regionOff(r.id+1) {
		return fmt.Errorf("segfile: segment %d overflows its %d-byte region", r.id, st.lay.regionBytes)
	}
	if _, err := st.f.WriteAt(rec, r.off); err != nil {
		return err
	}
	r.off += int64(len(rec))
	st.dirty = true
	st.bytesWritten.Add(int64(len(rec)))
	return nil
}

// OpenSegment implements lss.DurableLog: it starts a fresh incarnation
// of segment id by writing a header at the start of its region, which
// reads as zeros: never used, or zeroed by the commit that handed the
// id back. It issues no sync of its own: the header becomes durable
// with the first sync that covers it, which is also the first point
// anything acked depends on it.
func (st *Store) OpenSegment(id int, group lss.GroupID, born sim.WriteClock) error {
	if st.segs[id] != nil {
		return fmt.Errorf("segfile: open segment %d: incarnation already present", id)
	}
	if id < 0 || id >= st.lay.regions {
		return fmt.Errorf("segfile: open segment %d: the log holds %d regions", id, st.lay.regions)
	}
	if st.retiring[id] {
		// Reused before a commit handed it back — a caller that reaches
		// this store through a wrapper hiding Commit. Commit inline: the
		// free must be durable, and the region zeroed, before the new
		// incarnation's header lands on it.
		if _, err := st.Commit(); err != nil {
			return fmt.Errorf("segfile: open segment %d: %w", id, err)
		}
	}
	r := &region{id: id, epoch: st.epoch, off: st.lay.regionOff(id)}
	hdr := encodeHeader(segHeader{segID: id, group: int(group), born: uint64(born), epoch: r.epoch})
	if err := st.write(r, hdr); err != nil {
		return fmt.Errorf("segfile: segment %d header: %w", id, err)
	}
	st.epoch++
	st.segs[id] = r
	return nil
}

// AppendChunk implements lss.DurableLog.
func (st *Store) AppendChunk(c lss.DurableChunk) error {
	r := st.segs[c.Segment]
	if r == nil {
		return fmt.Errorf("segfile: append to segment %d with no open incarnation", c.Segment)
	}
	if r.sealed {
		return fmt.Errorf("segfile: append to sealed segment %d", c.Segment)
	}
	if c.Chunk != r.chunks {
		return fmt.Errorf("segfile: segment %d chunk %d out of order (have %d)", c.Segment, c.Chunk, r.chunks)
	}
	rec := appendRecord(nil, r.epoch, recChunk, encodeChunkBody(c.Chunk, uint64(c.W), uint64(c.Now), c.LBAs, c.Vers))
	if err := st.write(r, rec); err != nil {
		return fmt.Errorf("segfile: segment %d chunk %d: %w", c.Segment, c.Chunk, err)
	}
	r.chunks++
	st.lastW = uint64(c.W)
	st.lastNow = uint64(c.Now)
	for _, v := range c.Vers {
		if uint64(v) > st.lastSeq {
			st.lastSeq = uint64(v)
		}
	}
	if st.opts.Sync == SyncAlways {
		st.dirty = false
		if err := st.timedSync(); err != nil {
			return fmt.Errorf("segfile: segment %d chunk %d sync: %w", c.Segment, c.Chunk, err)
		}
	}
	return nil
}

// SealSegment implements lss.DurableLog: it appends the seal record,
// which the next commit's sync makes durable, in every sync mode.
// Seals and the cadence checkpoint they make due ride the next commit
// a free or an explicit Checkpoint brings; only when
// CheckpointEverySeals seals wait for a sync do they make a commit
// Pending on their own, so a log that frees nothing still syncs every
// N seals. The
// seal stays write-ahead without a sync of the chunk data before it,
// because the parser reaches a seal record only through every record
// in front of it: a crash that persists the seal but not some chunk
// leaves a cut tail ending before that chunk, never a sealed segment
// with a hole.
func (st *Store) SealSegment(id int, sealedW sim.WriteClock) error {
	r := st.segs[id]
	if r == nil {
		return fmt.Errorf("segfile: seal segment %d with no open incarnation", id)
	}
	if r.sealed {
		return fmt.Errorf("segfile: segment %d already sealed", id)
	}
	rec := appendRecord(nil, r.epoch, recSeal, binary.AppendUvarint(nil, uint64(sealedW)))
	if err := st.write(r, rec); err != nil {
		return fmt.Errorf("segfile: segment %d seal: %w", id, err)
	}
	r.sealed = true
	st.seals++
	if n := st.opts.CheckpointEverySeals; n > 0 {
		st.sealsSinceCkpt++
		if st.sealsSinceCkpt >= n {
			st.sealsSinceCkpt = 0
			st.ckptDue = true
		}
		if st.seals >= n {
			st.pending.Store(true)
		}
	}
	return nil
}

// FreeSegment implements lss.DurableLog: it takes the victim out of
// the live set and queues it for the next commit, which zeroes its
// region only after the sync that makes every append before the free
// durable — GC migrated the victim's live blocks into other segments'
// chunks, and those must persist before the only prior copy goes. The
// id is not reusable until a commit hands it back.
func (st *Store) FreeSegment(id int) error {
	r := st.segs[id]
	if r == nil {
		return fmt.Errorf("segfile: free segment %d with no incarnation", id)
	}
	delete(st.segs, id)
	st.victims = append(st.victims, victim{id: id, len: r.off - st.lay.regionOff(id)})
	st.retiring[id] = true
	st.pending.Store(true)
	return nil
}

// Checkpoint implements lss.DurableLog: it records the clock floors
// and owes a checkpoint to the next commit.
func (st *Store) Checkpoint(w sim.WriteClock, appendSeq int64, now sim.Time) error {
	st.lastW = uint64(w)
	st.lastSeq = uint64(appendSeq)
	st.lastNow = uint64(now)
	st.sealsSinceCkpt = 0
	st.ckptDue = true
	st.pending.Store(true)
	return nil
}

// nextSlot encodes the next checkpoint slot from the store's current
// floors and returns it with the file offset it goes to.
func (st *Store) nextSlot() (data []byte, off int64) {
	st.slotSeq++
	return encodeCheckpoint(checkpoint{
		geo:       st.lay.geometry,
		seq:       st.slotSeq,
		w:         st.lastW,
		appendSeq: st.lastSeq,
		now:       st.lastNow,
		epoch:     st.epoch,
	}), slotOff(st.slotSeq)
}

// writeSlot writes an encoded checkpoint slot. Only boot and a commit
// call it, so it touches no store state but the atomic counters.
func (st *Store) writeSlot(data []byte, off int64) error {
	if _, err := st.f.WriteAt(data, off); err != nil {
		return err
	}
	st.bytesWritten.Add(int64(len(data)))
	return nil
}

// Stats is a snapshot of the durable-backend counters.
type Stats struct {
	SyncedSegments int64
	Fsyncs         int64
	DirSyncs       int64
	Checkpoints    int64
	BytesWritten   int64
	FsyncP50NS     int64
	FsyncP99NS     int64
	FsyncP999NS    int64

	RecoveredSegments int64
	RecoveredBlocks   int64
	TornRecords       int64
	CorruptFiles      int64
}

// Stats returns a snapshot of the counters. Safe to call concurrently
// with store use.
func (st *Store) Stats() Stats {
	return Stats{
		SyncedSegments:    st.syncedSegments.Load(),
		Fsyncs:            st.fsyncs.Load(),
		DirSyncs:          st.dirSyncs.Load(),
		Checkpoints:       st.checkpoints.Load(),
		BytesWritten:      st.bytesWritten.Load(),
		FsyncP50NS:        st.hist.Quantile(0.5),
		FsyncP99NS:        st.hist.Quantile(0.99),
		FsyncP999NS:       st.hist.Quantile(0.999),
		RecoveredSegments: st.recoveredSegs.Load(),
		RecoveredBlocks:   st.recoveredBlocks.Load(),
		TornRecords:       st.tornRecords.Load(),
		CorruptFiles:      st.corruptFiles,
	}
}

// metricName decorates a metric name with the shard label, mirroring
// the store's own shard decoration so both register on one set.
func (st *Store) metricName(name string) string {
	if !st.opts.Sharded {
		return name
	}
	return fmt.Sprintf("%s{shard=\"%d\"}", name, st.opts.Shard)
}

// attachTelemetry registers the lss_durable_* instruments on the
// attached set — or, with none, on a registry nobody scrapes, so the
// store always owns the one fsync histogram Stats reads.
func (st *Store) attachTelemetry() {
	reg := telemetry.NewRegistry()
	if ts := st.opts.Telemetry; ts != nil {
		reg = ts.Registry
	}
	type cum struct {
		name, help string
		cumulative bool
		fn         func() int64
	}
	for _, c := range []cum{
		{telemetry.MetricDurableSyncedSegments, "Segment seals a log commit made durable", true, st.syncedSegments.Load},
		{telemetry.MetricDurableFsyncs, "Log file syncs (fdatasync on Linux) issued by the durable backend", true, st.fsyncs.Load},
		{telemetry.MetricDurableDirSyncs, "Directory fsyncs issued by the durable backend, one per boot", true, st.dirSyncs.Load},
		{telemetry.MetricDurableBytes, "Bytes appended to the durable segment log", true, st.bytesWritten.Load},
		{telemetry.MetricDurableCheckpoints, "Checkpoint slots a log commit made durable", true, st.checkpoints.Load},
		{telemetry.MetricDurableRecoveredSegments, "Segments rolled forward from disk at recovery", false, st.recoveredSegs.Load},
		{telemetry.MetricDurableRecoveredBlocks, "Blocks rolled forward from disk at recovery", false, st.recoveredBlocks.Load},
		{telemetry.MetricDurableTornRecords, "Regions whose torn tail was zeroed at boot", false, st.tornRecords.Load},
	} {
		reg.NewFuncGauge(st.metricName(c.name), c.help, c.cumulative, c.fn)
	}
	st.hist = reg.NewHistogram(st.metricName(telemetry.MetricDurableFsyncHistogram),
		"fsync latency of the durable backend", fsyncBounds)
}
