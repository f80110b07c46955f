package segfile

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// SyncMode selects the fsync discipline.
type SyncMode int

const (
	// SyncAlways fsyncs after every appended chunk: an acknowledged
	// chunk is durable the moment AppendChunk returns. This is the mode
	// with the zero-lost-acks guarantee and the one the crash sweep
	// proves exact.
	SyncAlways SyncMode = iota
	// SyncOnSeal defers data fsyncs to durability boundaries — segment
	// seal and segment free (which first syncs every dirty file so a GC
	// victim is never destroyed before its migrated blocks persist).
	// Open-segment tails may be lost in a crash; recovery still
	// converges to a consistent prefix.
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
	// CheckpointEverySeals writes a clock-floor checkpoint every N
	// segment seals (in addition to explicit Checkpoint calls). Zero
	// means 16; negative disables cadence checkpoints.
	CheckpointEverySeals int
	// Geometry, when non-zero, stamps the store-geometry fingerprint
	// into checkpoints so recovery can reject a mismatched
	// configuration before replaying. Pass Config.GeometryDefaults().
	Geometry lss.Config
	// Telemetry registers the lss_durable_* instruments on the set.
	Telemetry *telemetry.Set
	// Sharded/Shard label the instruments with {shard="id"}, exactly as
	// lss.Deps does for the store's own metrics.
	Sharded bool
	Shard   int
}

// fileState is the live append state of one segment file.
type fileState struct {
	f      File
	off    int64
	chunks int
	sealed bool
	dirty  bool
	// linked reports that the file's directory entry is durable. A name
	// created by OpenSegment is not linked until the first syncFile that
	// covers the file, which syncs the directory too.
	linked bool
}

// Store is the file-backed segment store. It implements lss.DurableLog
// and is driven synchronously by a single lss.Store, so it needs no
// locking of its own (the counters are atomic only because telemetry
// scrapes read them concurrently).
type Store struct {
	fs   FS
	opts Options

	segs map[int]*fileState
	// pool holds the free slots: ids whose seg-NNNNN.seg is a durably
	// linked zero-length file, left by FreeSegment (or found by scan)
	// for the next OpenSegment of the id to reuse.
	pool  map[int]bool
	epoch uint64 // next incarnation epoch

	// Scan results from Open, consumed by Recover.
	images       map[int]*segImage
	ckpt         *checkpoint
	corruptFiles int64

	// Clock floors cached from the latest append, for cadence-driven
	// checkpoints between explicit Checkpoint calls.
	lastW, lastSeq, lastNow uint64
	sealsSinceCkpt          int

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

var _ lss.DurableLog = (*Store)(nil)

// Open opens (or creates) the backing directory, scans it for durable
// segment state, and truncates any torn record tails so appends can
// continue. Call Recover next when HasData reports existing state;
// build a fresh store with lss.New(..., Deps{Durable: st}) otherwise.
func Open(opts Options) (*Store, error) {
	if opts.CheckpointEverySeals == 0 {
		opts.CheckpointEverySeals = 16
	}
	st := &Store{
		fs:     opts.FS,
		opts:   opts,
		segs:   make(map[int]*fileState),
		pool:   make(map[int]bool),
		images: make(map[int]*segImage),
		epoch:  1,
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
	if err := st.scan(); err != nil {
		return nil, err
	}
	st.attachTelemetry()
	return st, nil
}

// scan reads the directory, parses every segment file and the
// checkpoint, pools zero-length segment files as free slots, truncates
// torn tails, and leaves append handles positioned at the end of each
// valid prefix. It ends with one directory sync: a predecessor killed
// between creating a segment file and first syncing it leaves a name
// this process can see but a power cut could still lose, and every
// later sync of a scanned file assumes its name is durable.
func (st *Store) scan() error {
	names, err := st.fs.ReadDir()
	if err != nil {
		return fmt.Errorf("segfile: scan: %w", err)
	}
	for _, name := range names {
		switch {
		case name == ckptName:
			data, err := readAll(st.fs, name)
			if err != nil {
				return fmt.Errorf("segfile: scan: %w", err)
			}
			ck, err := decodeCheckpoint(data)
			if err != nil {
				// A corrupt checkpoint loses only clock floors; the
				// segment files are the mapping authority.
				st.corruptFiles++
				continue
			}
			st.ckpt = &ck
		case name == ckptTmpName:
			// A crash between tmp write and rename; the rename never
			// became durable, so the tmp content is dead weight.
			_ = st.fs.Remove(name)
		default:
			id, ok := parseSegFileName(name)
			if !ok {
				continue
			}
			data, err := readAll(st.fs, name)
			if err != nil {
				return fmt.Errorf("segfile: scan %s: %w", name, err)
			}
			if len(data) == 0 {
				// A freed incarnation (or one created and never synced).
				st.pool[id] = true
				continue
			}
			img, perr := parseSegment(data)
			if perr != nil || img.header.segID != id {
				// Unreadable header (or a header claiming another id):
				// nothing durable is recoverable from this file.
				st.corruptFiles++
				_ = st.fs.Remove(name)
				continue
			}
			st.tornRecords.Add(int64(img.torn))
			f, err := st.fs.OpenFile(name, os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("segfile: scan %s: %w", name, err)
			}
			if int64(len(data)) > img.validLen {
				if err := f.Truncate(img.validLen); err != nil {
					return fmt.Errorf("segfile: truncate %s: %w", name, err)
				}
			}
			st.images[id] = img
			st.segs[id] = &fileState{
				f:      f,
				off:    img.validLen,
				chunks: len(img.chunks),
				sealed: img.sealed,
				linked: true,
			}
			if img.header.epoch >= st.epoch {
				st.epoch = img.header.epoch + 1
			}
		}
	}
	if st.ckpt != nil {
		if st.ckpt.epoch >= st.epoch {
			st.epoch = st.ckpt.epoch + 1
		}
		st.lastW = st.ckpt.w
		st.lastSeq = st.ckpt.appendSeq
		st.lastNow = st.ckpt.now
	}
	if err := st.syncDir(); err != nil {
		return fmt.Errorf("segfile: scan: %w", err)
	}
	return nil
}

// HasData reports whether the directory held recoverable state —
// decide between Recover and a fresh lss.New on it.
func (st *Store) HasData() bool { return len(st.images) > 0 || st.ckpt != nil }

// Close syncs every dirty segment file and closes all handles. It does
// not checkpoint; lss.Store.Drain checkpoints through the DurableLog
// hook before the engine closes its backend.
func (st *Store) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	var firstErr error
	ids := make([]int, 0, len(st.segs))
	for id := range st.segs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fs := st.segs[id]
		if fs.f == nil {
			continue
		}
		if fs.dirty {
			if err := st.syncFile(fs); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := fs.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		fs.f = nil
	}
	return firstErr
}

// syncFile makes one segment file durable and reachable: it fsyncs the
// file (feeding the latency instruments) and, the first time a newly
// created name is covered, the directory after it.
func (st *Store) syncFile(fs *fileState) error {
	if err := st.timedSync(fs.f); err != nil {
		return err
	}
	if !fs.linked {
		if err := st.syncDir(); err != nil {
			return err
		}
		fs.linked = true
	}
	fs.dirty = false
	return nil
}

// fsyncBounds are the fsync-latency histogram bucket upper bounds in
// nanoseconds: 10 µs .. 1 s in decades, bracketing both tmpfs (~µs)
// and spinning storage (~ms).
var fsyncBounds = []int64{
	10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// timedSync fsyncs f, counting the call and observing its latency.
func (st *Store) timedSync(f File) error {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	d := time.Since(start).Nanoseconds()
	st.fsyncs.Add(1)
	st.hist.Observe(d)
	return nil
}

// syncDir persists the directory namespace, counting the call.
func (st *Store) syncDir() error {
	if err := st.fs.SyncDir(); err != nil {
		return err
	}
	st.dirSyncs.Add(1)
	return nil
}

// writeRec appends pre-framed bytes (a record, or the header block) at
// the file's append offset.
func (st *Store) writeRec(fs *fileState, rec []byte) error {
	if _, err := fs.f.WriteAt(rec, fs.off); err != nil {
		return err
	}
	fs.off += int64(len(rec))
	fs.dirty = true
	st.bytesWritten.Add(int64(len(rec)))
	return nil
}

// OpenSegment implements lss.DurableLog: it starts a fresh incarnation
// of segment id by writing a header into the id's pooled zero-length
// file, creating the file only when the id has never been used. It
// issues no sync of its own: the header (and a new name's directory
// entry) become durable with the first syncFile that covers the file,
// which is also the first point anything acked depends on them.
func (st *Store) OpenSegment(id int, group lss.GroupID, born sim.WriteClock) error {
	if old := st.segs[id]; old != nil {
		return fmt.Errorf("segfile: open segment %d: incarnation already present", id)
	}
	recycled := st.pool[id]
	flag := os.O_RDWR
	if !recycled {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := st.fs.OpenFile(segFileName(id), flag, 0o644)
	if err != nil {
		return fmt.Errorf("segfile: open segment %d: %w", id, err)
	}
	hdr := encodeHeader(segHeader{
		segID:     id,
		group:     int(group),
		born:      uint64(born),
		epoch:     st.epoch,
		dataStart: headerSize,
	})
	fs := &fileState{f: f, linked: recycled}
	st.epoch++
	if err := st.writeRec(fs, hdr); err != nil {
		f.Close()
		return fmt.Errorf("segfile: segment %d header: %w", id, err)
	}
	delete(st.pool, id)
	st.segs[id] = fs
	return nil
}

// AppendChunk implements lss.DurableLog.
func (st *Store) AppendChunk(c lss.DurableChunk) error {
	fs := st.segs[c.Segment]
	if fs == nil || fs.f == nil {
		return fmt.Errorf("segfile: append to segment %d with no open incarnation", c.Segment)
	}
	if fs.sealed {
		return fmt.Errorf("segfile: append to sealed segment %d", c.Segment)
	}
	if c.Chunk != fs.chunks {
		return fmt.Errorf("segfile: segment %d chunk %d out of order (have %d)", c.Segment, c.Chunk, fs.chunks)
	}
	rec := appendRecord(nil, recChunk, encodeChunkBody(c.Chunk, uint64(c.W), uint64(c.Now), c.LBAs, c.Vers))
	if err := st.writeRec(fs, rec); err != nil {
		return fmt.Errorf("segfile: segment %d chunk %d: %w", c.Segment, c.Chunk, err)
	}
	fs.chunks++
	st.lastW = uint64(c.W)
	st.lastNow = uint64(c.Now)
	for _, v := range c.Vers {
		if uint64(v) > st.lastSeq {
			st.lastSeq = uint64(v)
		}
	}
	if st.opts.Sync == SyncAlways {
		if err := st.syncFile(fs); err != nil {
			return fmt.Errorf("segfile: segment %d chunk %d sync: %w", c.Segment, c.Chunk, err)
		}
	}
	return nil
}

// SealSegment implements lss.DurableLog: it appends the seal record
// and syncs the file once, in every sync mode. The seal stays
// write-ahead without a sync of the chunk data before it, because the
// parser reaches a seal record only through every record in front of
// it: a crash that persists the seal but not some chunk leaves a torn
// tail ending before that chunk, never a sealed segment with a hole.
func (st *Store) SealSegment(id int, sealedW sim.WriteClock) error {
	fs := st.segs[id]
	if fs == nil || fs.f == nil {
		return fmt.Errorf("segfile: seal segment %d with no open incarnation", id)
	}
	if fs.sealed {
		return fmt.Errorf("segfile: segment %d already sealed", id)
	}
	var body [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(body[:], uint64(sealedW))
	rec := appendRecord(nil, recSeal, body[:n])
	if err := st.writeRec(fs, rec); err != nil {
		return fmt.Errorf("segfile: segment %d seal: %w", id, err)
	}
	if err := st.syncFile(fs); err != nil {
		return fmt.Errorf("segfile: segment %d seal sync: %w", id, err)
	}
	if err := fs.f.Close(); err != nil {
		return fmt.Errorf("segfile: segment %d close: %w", id, err)
	}
	fs.f = nil
	fs.sealed = true
	st.syncedSegments.Add(1)
	if st.opts.CheckpointEverySeals > 0 {
		st.sealsSinceCkpt++
		if st.sealsSinceCkpt >= st.opts.CheckpointEverySeals {
			if err := st.writeCheckpoint(); err != nil {
				return fmt.Errorf("segfile: cadence checkpoint: %w", err)
			}
		}
	}
	return nil
}

// FreeSegment implements lss.DurableLog. Before the victim's image is
// destroyed, every other dirty segment file is synced: GC migrated the
// victim's live blocks into other segments' chunks, and those appends
// must be durable before the only prior copy goes (a no-op under
// SyncAlways, where appends sync as they happen). The victim is then
// truncated to zero and synced — the durability point — which leaves
// its durably linked name in the pool for the id's next incarnation;
// nothing is unlinked and the directory is not touched. No fallible
// call follows the durability point, so a free is durable if and only
// if it is acked.
func (st *Store) FreeSegment(id int) error {
	victim := st.segs[id]
	if victim == nil {
		return fmt.Errorf("segfile: free segment %d with no incarnation", id)
	}
	// Sorted, so the syscall a crash budget lands on is the same in
	// every run of one workload.
	var dirty []int
	for oid, fs := range st.segs {
		if fs != victim && fs.dirty && fs.f != nil {
			dirty = append(dirty, oid)
		}
	}
	sort.Ints(dirty)
	for _, oid := range dirty {
		if err := st.syncFile(st.segs[oid]); err != nil {
			return fmt.Errorf("segfile: pre-free sync of segment %d: %w", oid, err)
		}
	}
	if victim.f == nil {
		f, err := st.fs.OpenFile(segFileName(id), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("segfile: free segment %d: %w", id, err)
		}
		victim.f = f
	}
	if err := victim.f.Truncate(0); err != nil {
		return fmt.Errorf("segfile: free segment %d truncate: %w", id, err)
	}
	if err := st.syncFile(victim); err != nil {
		return fmt.Errorf("segfile: free segment %d sync: %w", id, err)
	}
	// The handle holds nothing unsynced; a close error changes nothing
	// about what is durable.
	_ = victim.f.Close()
	delete(st.segs, id)
	st.pool[id] = true
	return nil
}

// Checkpoint implements lss.DurableLog.
func (st *Store) Checkpoint(w sim.WriteClock, appendSeq int64, now sim.Time) error {
	st.lastW = uint64(w)
	st.lastSeq = uint64(appendSeq)
	st.lastNow = uint64(now)
	if err := st.writeCheckpoint(); err != nil {
		return fmt.Errorf("segfile: checkpoint: %w", err)
	}
	return nil
}

// writeCheckpoint atomically replaces the checkpoint file: write the
// tmp, sync it, rename over the live name, sync the directory.
func (st *Store) writeCheckpoint() error {
	geo := geometry{
		blockSize:     st.opts.Geometry.BlockSize,
		chunkBlocks:   st.opts.Geometry.ChunkBlocks,
		segmentChunks: st.opts.Geometry.SegmentChunks,
		userBlocks:    st.opts.Geometry.UserBlocks,
	}
	data := encodeCheckpoint(geo, st.lastW, st.lastSeq, st.lastNow, st.epoch)
	f, err := st.fs.OpenFile(ckptTmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	if err := st.timedSync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := st.fs.Rename(ckptTmpName, ckptName); err != nil {
		return err
	}
	if err := st.syncDir(); err != nil {
		return err
	}
	st.bytesWritten.Add(int64(len(data)))
	st.checkpoints.Add(1)
	st.sealsSinceCkpt = 0
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
		{telemetry.MetricDurableSyncedSegments, "Segments sealed and fsynced to the durable backend", true, st.syncedSegments.Load},
		{telemetry.MetricDurableFsyncs, "fsync syscalls issued by the durable backend", true, st.fsyncs.Load},
		{telemetry.MetricDurableDirSyncs, "Directory fsyncs issued by the durable backend", true, st.dirSyncs.Load},
		{telemetry.MetricDurableBytes, "Bytes appended to the durable segment log", true, st.bytesWritten.Load},
		{telemetry.MetricDurableCheckpoints, "Clock-floor checkpoints atomically installed", true, st.checkpoints.Load},
		{telemetry.MetricDurableRecoveredSegments, "Segments rolled forward from disk at recovery", false, st.recoveredSegs.Load},
		{telemetry.MetricDurableRecoveredBlocks, "Blocks rolled forward from disk at recovery", false, st.recoveredBlocks.Load},
		{telemetry.MetricDurableTornRecords, "Torn record tails truncated at recovery", false, st.tornRecords.Load},
	} {
		reg.NewFuncGauge(st.metricName(c.name), c.help, c.cumulative, c.fn)
	}
	st.hist = reg.NewHistogram(st.metricName(telemetry.MetricDurableFsyncHistogram),
		"fsync latency of the durable backend", fsyncBounds)
}
