package segfile_test

import (
	"errors"
	"fmt"
	"io/fs"
	"testing"

	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
)

// tornHistory sits between the store and the log and records what the
// torn sweep checks recovery against: every incarnation of every id,
// chunk by chunk, in append order; the frees recorded and the ones a
// commit handed back; the chunks the last finished sync covered; and
// the syscalls that wrote a reused region's header.
type tornHistory struct {
	*segfile.Store
	crash *segfile.CrashFS

	incs     map[int][]*tornInc
	seq      int64       // chunks appended
	covered  int64       // chunks appended before the last finished sync
	freeing  map[int]int // free recorded, not handed back: seq at the free
	freed    map[int]bool
	reuseOps []int // CrashFS call numbers of reused regions' header writes
}

// tornInc is one incarnation: its chunks and their append seqs.
type tornInc struct {
	lbas, vers [][]int64
	seqs       []int64
}

// OpenSegment and AppendChunk record what they write before they
// write it: a write whose sync then crashed can still reach a torn
// image.
func (h *tornHistory) OpenSegment(id int, group lss.GroupID, born sim.WriteClock) error {
	reused := len(h.incs[id]) > 0
	h.incs[id] = append(h.incs[id], &tornInc{})
	delete(h.freed, id)
	if err := h.Store.OpenSegment(id, group, born); err != nil {
		return err
	}
	if reused {
		h.reuseOps = append(h.reuseOps, h.crash.Calls())
	}
	return nil
}

func (h *tornHistory) AppendChunk(c lss.DurableChunk) error {
	inc := h.incs[c.Segment][len(h.incs[c.Segment])-1]
	h.seq++
	inc.lbas = append(inc.lbas, append([]int64(nil), c.LBAs...))
	inc.vers = append(inc.vers, append([]int64(nil), c.Vers...))
	inc.seqs = append(inc.seqs, h.seq)
	return h.Store.AppendChunk(c)
}

func (h *tornHistory) FreeSegment(id int) error {
	if err := h.Store.FreeSegment(id); err != nil {
		return err
	}
	h.freeing[id] = int(h.seq)
	return nil
}

func (h *tornHistory) Commit() ([]int, error) {
	freed, err := h.Store.Commit()
	for _, id := range freed {
		delete(h.freeing, id)
		h.freed[id] = true
	}
	return freed, err
}

// syncTap marks every finished file sync in the history: each one
// covers the chunks appended before it started.
type syncTap struct {
	segfile.FS
	h *tornHistory
}

func (s syncTap) OpenFile(name string, flag int, perm fs.FileMode) (segfile.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tapFile{File: f, h: s.h}, nil
}

type tapFile struct {
	segfile.File
	h *tornHistory
}

func (f tapFile) Sync() error {
	at := f.h.seq
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.h.covered = at
	return nil
}

// tornReplay drives the served schedule against a CrashFS with the
// given budget, recording the history and the kind of every syscall.
func tornReplay(t *testing.T, cfg lss.Config, mode segfile.SyncMode, budget int) (*tornHistory, []string, bool) {
	t.Helper()
	crash := segfile.NewCrashFS(segfile.NewMemFS(), budget)
	h := &tornHistory{
		crash:   crash,
		incs:    make(map[int][]*tornInc),
		freeing: make(map[int]int),
		freed:   make(map[int]bool),
	}
	var ops []string
	sf, err := segfile.Open(segfile.Options{
		FS:                   syncTap{FS: opLog{FS: crash, ops: &ops}, h: h},
		Sync:                 mode,
		Geometry:             cfg.GeometryDefaults(),
		CheckpointEverySeals: 4,
	})
	if err != nil {
		if !errors.Is(err, segfile.ErrCrashed) {
			t.Fatalf("budget %d: open: %v", budget, err)
		}
		return h, ops, false
	}
	h.Store = sf
	s := lss.New(cfg, newPolicy(cfg), lss.Deps{Durable: h})
	completed := driveServed(t, s, workloadOps)
	if !completed && !errors.Is(s.DurableErr(), segfile.ErrCrashed) {
		t.Fatalf("budget %d: latched %v, want ErrCrashed", budget, s.DurableErr())
	}
	return h, ops, completed
}

// checkTorn recovers a torn image of a crash and holds it to the
// history: recovery succeeds; every surviving region holds a prefix of
// its id's latest incarnation — no record of an earlier one, no region
// a commit handed back — padded to full only when it was promoted; and
// every block a finished sync covered in a segment nobody freed
// survives at its covered version or a newer one.
func checkTorn(t *testing.T, cfg lss.Config, h *tornHistory, img *segfile.MemFS, at string) segfile.RecoveryStats {
	t.Helper()
	sf, err := segfile.Open(segfile.Options{FS: img, Geometry: cfg.GeometryDefaults()})
	if err != nil {
		t.Fatalf("%s: open: %v", at, err)
	}
	var stats segfile.RecoveryStats
	rec := lss.New(cfg, newPolicy(cfg))
	if sf.HasData() {
		if rec, stats, err = sf.Recover(cfg, newPolicy(cfg)); err != nil {
			t.Fatalf("%s: recover: %v", at, err)
		}
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("%s: recovered invariants: %v", at, err)
	}
	cb := cfg.ChunkBlocks
	for id := 0; id < rec.TotalSegments(); id++ {
		if view, ok := rec.Segment(id); !ok || view.State == lss.SegmentFree {
			continue
		}
		incs := h.incs[id]
		if len(incs) == 0 || h.freed[id] {
			t.Fatalf("%s: segment %d surfaced, but no live incarnation of it was ever opened", at, id)
		}
		// The slots are a chunk prefix of the latest incarnation, then —
		// only in a promoted segment — padding to the end.
		latest := incs[len(incs)-1]
		flushed := rec.FlushedSlots(id)
		m := 0
		for m < len(latest.lbas) && m*cb < flushed && chunkRecovered(rec, id, m, latest) {
			m++
		}
		for slot := m * cb; slot < flushed; slot++ {
			if info, _ := rec.Slot(id, slot); info.Kind != lss.SlotPad || stats.PromotedSegments == 0 {
				t.Fatalf("%s: segment %d slot %d holds %+v past the %d chunks it shares with its latest incarnation",
					at, id, slot, info, m)
			}
		}
	}
	for id, incs := range h.incs {
		if _, freeing := h.freeing[id]; freeing || h.freed[id] {
			continue
		}
		inc := incs[len(incs)-1]
		for ci, seq := range inc.seqs {
			if seq > h.covered {
				break
			}
			for i, v := range inc.lbas[ci] {
				lba, ok := lss.DecodeSlot(v)
				if !ok {
					continue
				}
				seg, slot, mapped := rec.Location(lba)
				info, _ := rec.Slot(seg, slot)
				if !mapped || info.Version < inc.vers[ci][i] {
					t.Fatalf("%s: lba %d synced at version %d in segment %d recovered (%v, version %d)",
						at, lba, inc.vers[ci][i], id, mapped, info.Version)
				}
			}
		}
	}
	return stats
}

// chunkRecovered reports whether chunk ci of recovered segment id holds
// what inc wrote there.
func chunkRecovered(rec *lss.Store, id, ci int, inc *tornInc) bool {
	for i, v := range inc.lbas[ci] {
		info, _ := rec.Slot(id, ci*len(inc.lbas[ci])+i)
		lba, data := lss.DecodeSlot(v)
		if data != (info.Kind != lss.SlotPad) || data && (info.LBA != lba || info.Version != inc.vers[ci][i]) {
			return false
		}
	}
	return true
}

// TestCrashSweepTornOverwrite sweeps the served schedule's syscall
// boundaries with the crash image torn: a seeded, page-granular subset
// of the writes no sync covered reached the disk too, in any order —
// a reused region's new header without its chunks, a seal or a
// checkpoint slot without what came before it. Recovery must succeed,
// never return a record of an incarnation older than its region's
// latest, keep every block a finished sync covered, and promote a
// group's short predecessor that sits behind a durable successor. The
// sweep must cross each of those writes.
func TestCrashSweepTornOverwrite(t *testing.T) {
	cfg := smallCfg()
	for _, mode := range []segfile.SyncMode{segfile.SyncAlways, segfile.SyncOnSeal} {
		t.Run(mode.String(), func(t *testing.T) {
			h, ops, completed := tornReplay(t, cfg, mode, -1)
			if !completed || len(h.reuseOps) == 0 {
				t.Fatalf("counting run: completed %v, %d reused regions", completed, len(h.reuseOps))
			}
			n := len(ops)
			reuse := make(map[int]bool)
			for _, k := range h.reuseOps {
				reuse[k] = true
			}
			stride, seeds := 1, uint64(2)
			if testing.Short() {
				stride, seeds = 5, 1
			}
			// crossed counts the crash points whose unsynced writes
			// include each kind the sweep must tear.
			crossed := map[string]int{}
			promoted := 0
			for k := 1; k <= n; k += stride {
				unsynced := map[string]bool{}
				for j := k - 1; j >= 1 && ops[j-1] != "sync"; j-- {
					unsynced[ops[j-1]] = true
					if reuse[j] {
						unsynced["reuse"] = true
					}
				}
				for kind := range unsynced {
					crossed[kind]++
				}
				h, _, _ := tornReplay(t, cfg, mode, k)
				for seed := uint64(1); seed <= seeds; seed++ {
					at := fmt.Sprintf("crash at syscall %d of %d (seed %d)", k, n, seed)
					promoted += checkTorn(t, cfg, h, h.crash.TornImage(seed), at).PromotedSegments
				}
			}
			for _, kind := range []string{"reuse", "seal", "slot"} {
				if crossed[kind] == 0 {
					t.Errorf("no crash point tore a %s write", kind)
				}
			}
			if mode == segfile.SyncOnSeal && promoted == 0 {
				t.Error("no recovery promoted a short predecessor: the sweep never reached one")
			}
			t.Logf("%d syscalls; crash points tearing reuse/seal/slot/chunk writes: %d/%d/%d/%d; %d promotions",
				n, crossed["reuse"], crossed["seal"], crossed["slot"], crossed["write"], promoted)
		})
	}
}
