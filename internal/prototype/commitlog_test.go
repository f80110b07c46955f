package prototype

import (
	"io/fs"
	"sync"
	"testing"

	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// lockFS counts the syncs one shard's segment log issues, file and
// directory, and how many of them ran while the shard's engine lock
// was held. With every op and commit on one goroutine, the lock is
// held at a sync exactly when that goroutine issued it under the lock.
type lockFS struct {
	segfile.FS
	mu               *sync.Mutex // the shard's engine lock; nil while booting
	syncs, underLock int
}

func (l *lockFS) held() bool {
	if l.mu == nil {
		return false
	}
	if l.mu.TryLock() {
		l.mu.Unlock()
		return false
	}
	return true
}

func (l *lockFS) count() {
	l.syncs++
	if l.held() {
		l.underLock++
	}
}

func (l *lockFS) OpenFile(name string, flag int, perm fs.FileMode) (segfile.File, error) {
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return lockFile{File: f, fs: l}, nil
}

func (l *lockFS) SyncDir() error {
	l.count()
	return l.FS.SyncDir()
}

type lockFile struct {
	segfile.File
	fs *lockFS
}

func (f lockFile) Sync() error {
	f.fs.count()
	return f.File.Sync()
}

// lockStream is one op of a served-shape stream: it issues op number
// op and returns the LBA whose shard's log the leader then commits.
type lockStream func(s *Sharded, rng *sim.RNG, op int) (lba int64, err error)

// smallWriteStream is the served small-write mix: nine ops in ten go
// to the hot eighth of either shard, so victims are mostly garbage and
// a cycle refills its pool from the free segments it starts with.
func smallWriteStream(s *Sharded, rng *sim.RNG, op int) (int64, error) {
	blocks := s.Config().UserBlocks
	lba := rng.Int63n(blocks)
	if op%10 != 0 {
		lba = rng.Int63n(blocks/16) + blocks/2*int64(op%2)
	}
	var err error
	switch {
	case op%97 == 96:
		_, err = s.TrimTimed(lba, 1)
	case op%10 == 9:
		_, err = s.ReadTimed(lba, 1)
	default:
		_, err = s.WriteBatchTimed([]BatchWrite{{LBA: lba, Blocks: 1}})
	}
	return lba, err
}

// chunkChurnStream is the served chunk-churn mix: aligned 16-block
// writes, uniform over the whole space, one op in five a read of the
// same shape. Whole-chunk overwrites leave victims about two-thirds
// valid, so one synchronous cycle relocates more than the allocatable
// pool holds at the low watermark.
func chunkChurnStream(s *Sharded, rng *sim.RNG, op int) (int64, error) {
	const n = 16
	lba := rng.Int63n(s.Config().UserBlocks/n) * n
	var err error
	if op%5 == 4 {
		_, err = s.ReadTimed(lba, n)
	} else {
		_, err = s.WriteBatchTimed([]BatchWrite{{LBA: lba, Blocks: n}})
	}
	return lba, err
}

// TestNoLogFsyncUnderEngineLock is the cost ledger's lock row: a
// served-shape engine (two shards, synchronous GC behind the
// cross-shard gate, the served -durable-sync seal) driven through a
// GC-heavy op stream with the log committed after every op, as the
// group-commit leader commits it after each ack, issues its segment
// log's syncs — seals, frees, checkpoints — and not one of them with
// an engine lock held. A commit that fell behind would show here too:
// allocation commits inline, under the lock. Both served write shapes
// run: small skewed writes, and whole-chunk uniform churn, whose
// cycles would outrun the allocatable pool if a cycle did not stop at
// a victim it cannot fund.
func TestNoLogFsyncUnderEngineLock(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream lockStream
	}{
		{"small-write", smallWriteStream},
		{"chunk-churn", chunkChurnStream},
	} {
		t.Run(tc.name, func(t *testing.T) { noLogFsyncUnderLock(t, tc.stream) })
	}
}

func noLogFsyncUnderLock(t *testing.T, stream lockStream) {
	fss := []*lockFS{{FS: segfile.NewMemFS()}, {FS: segfile.NewMemFS()}}
	shardFS = func(i int) segfile.FS { return fss[i] }
	defer func() { shardFS = nil }()
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:   durableCfg(),
			Durable: &segfile.Options{Dir: t.TempDir(), Sync: segfile.SyncOnSeal},
		},
		Shards:        2,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, f := range fss {
		f.mu = &s.shards[i].mu
	}
	rng := sim.NewRNG(7)
	for op := 0; op < 30000; op++ {
		lba, err := stream(s, rng, op)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		s.CommitLog(s.ShardOf(lba))
	}
	for i, f := range fss {
		st := s.shards[i].Stats()
		m := s.shards[i].store.Metrics()
		if st.GCCycles == 0 || m.SegmentsReclaimed == 0 {
			t.Fatalf("shard %d: %d GC cycles, %d reclaims — the stream did not reach GC", i, st.GCCycles, m.SegmentsReclaimed)
		}
		if f.syncs == 0 {
			t.Fatalf("shard %d: the log issued no sync", i)
		}
		if f.underLock != 0 || m.DurableInlineCommits != 0 {
			t.Errorf("shard %d: %d of %d log syncs under the engine lock, %d inline commits",
				i, f.underLock, f.syncs, m.DurableInlineCommits)
		}
		t.Logf("shard %d: %d GC cycles, %d reclaims, %d log syncs, none under the lock", i, st.GCCycles, m.SegmentsReclaimed, f.syncs)
	}
}
