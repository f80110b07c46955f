package lss

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"adapt/internal/sim"
)

// mappingSnapshot captures lba -> decoded block presence for
// comparing stores.
func mappingSnapshot(s *Store) map[int64]bool {
	out := make(map[int64]bool)
	for lba, loc := range s.mapping {
		if loc >= 0 {
			out[int64(lba)] = true
		}
	}
	return out
}

func TestCheckpointRoundTripAfterDrain(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	rng := sim.NewRNG(31)
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		now += sim.Time(rng.Int63n(150)) * sim.Microsecond
		if err := s.WriteBlock(rng.Int63n(cfg.UserBlocks), now); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain(now + sim.Second)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(&buf, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After Drain every block is durable: the recovered mapping must
	// cover exactly the same live set.
	want := mappingSnapshot(s)
	got := mappingSnapshot(r)
	if len(want) != len(got) {
		t.Fatalf("recovered %d live blocks, want %d", len(got), len(want))
	}
	for lba := range want {
		if !got[lba] {
			t.Fatalf("lba %d lost in recovery", lba)
		}
	}
	if r.WriteClock() != s.WriteClock() {
		t.Fatalf("write clock %d, want %d", r.WriteClock(), s.WriteClock())
	}
	// The recovered store must accept writes and keep invariants.
	for i := 0; i < 5000; i++ {
		now += 10 * sim.Microsecond
		if err := r.WriteBlock(rng.Int63n(cfg.UserBlocks), now); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashLosesOnlyUnflushedTail(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	// Flush one full chunk (4 blocks), then leave 2 blocks pending.
	for i := int64(0); i < 4; i++ {
		s.WriteBlock(i, 0)
	}
	s.WriteBlock(100, 0)
	s.WriteBlock(101, 0)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(&buf, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	got := mappingSnapshot(r)
	for i := int64(0); i < 4; i++ {
		if !got[i] {
			t.Fatalf("flushed block %d lost", i)
		}
	}
	if got[100] || got[101] {
		t.Fatal("unflushed pending blocks survived the crash")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoversFromShadowCopy(t *testing.T) {
	// A block whose only durable copy is a shadow append must survive.
	adv := &scriptedAdvisor3{}
	adv.action = func(g GroupID) TimeoutAction {
		if g == 0 {
			return TimeoutAction{Kind: ShadowInto, Target: 1}
		}
		return TimeoutAction{Kind: PadOwn}
	}
	cfg := smallConfig()
	s := New(cfg, adv)
	s.WriteBlock(0, 0) // group 0, pending
	// Timeout: block 0 shadow-persists into group 1's chunk, which is
	// flushed; the primary stays pending (not durable).
	s.WriteBlock(2, sim.Millisecond)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(&buf, cfg, adv)
	if err != nil {
		t.Fatal(err)
	}
	got := mappingSnapshot(r)
	if !got[0] {
		t.Fatal("shadow-persisted block lost in crash recovery")
	}
	if got[2] {
		t.Fatal("unflushed block 2 survived")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// GC after recovery must be able to migrate the shadow-mapped
	// block without losing it.
	rng := sim.NewRNG(7)
	now := 2 * sim.Millisecond
	for i := 0; i < int(cfg.UserBlocks)*6; i++ {
		now += sim.Microsecond
		lba := rng.Int63n(cfg.UserBlocks)
		if lba == 0 {
			continue // never overwrite block 0
		}
		if err := r.WriteBlock(lba, now); err != nil {
			t.Fatal(err)
		}
	}
	if !mappingSnapshot(r)[0] {
		t.Fatal("shadow-recovered block lost during post-recovery GC")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLatestVersionWinsAcrossSegments(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	// Write block 7 many times across chunks/segments, always at the
	// same timestamp so everything flushes densely.
	for i := 0; i < 200; i++ {
		s.WriteBlock(7, 0)
		s.WriteBlock(int64(i%50)+100, 0) // interleave to spread chunks
	}
	s.Drain(sim.Second)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(&buf, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	// The recovered mapping for block 7 must match the live store's.
	if r.mapping[7] != s.mapping[7] {
		t.Fatalf("recovered mapping %d, want %d (stale version chosen)", r.mapping[7], s.mapping[7])
	}
}

func TestRecoverRejectsMismatchedGeometry(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	s.WriteBlock(0, 0)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.UserBlocks = 8192
	if _, err := Recover(bytes.NewReader(buf.Bytes()), other, twoGroup{}); err == nil {
		t.Fatal("mismatched geometry accepted")
	}
}

func TestRecoverRejectsCorruption(t *testing.T) {
	if _, err := Recover(strings.NewReader("JUNKJUNKJUNK"), smallConfig(), twoGroup{}); err == nil {
		t.Fatal("garbage accepted")
	}
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	for i := int64(0); i < 64; i++ {
		s.WriteBlock(i, 0)
	}
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Recover(bytes.NewReader(trunc), cfg, twoGroup{}); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestRecoveredStoreMatchesReplayWA(t *testing.T) {
	// Recovery must leave the store in a state where continued
	// operation is sane: run the same tail workload on a recovered
	// store and on the original; live data must match at the end.
	cfg := smallConfig()
	build := func() *Store {
		s := New(cfg, twoGroup{})
		rng := sim.NewRNG(77)
		now := sim.Time(0)
		for i := 0; i < 30000; i++ {
			now += 20 * sim.Microsecond
			s.WriteBlock(rng.Int63n(cfg.UserBlocks), now)
		}
		s.Drain(now + sim.Second)
		return s
	}
	orig := build()
	var buf bytes.Buffer
	if err := orig.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(&buf, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	tail := func(s *Store) {
		rng := sim.NewRNG(99)
		now := s.Now()
		for i := 0; i < 10000; i++ {
			now += 20 * sim.Microsecond
			s.WriteBlock(rng.Int63n(cfg.UserBlocks), now)
		}
		s.Drain(now + sim.Second)
	}
	tail(orig)
	tail(rec)
	a, b := mappingSnapshot(orig), mappingSnapshot(rec)
	if len(a) != len(b) {
		t.Fatalf("live sets diverge: %d vs %d", len(a), len(b))
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverImageValidates: an Image that did not come from a
// checkpoint stream gets the same validation, and a decoded stream
// recovers the same store through RecoverImage as through Recover.
func TestRecoverImageValidates(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg, twoGroup{})
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		now += 20 * sim.Microsecond
		if err := s.WriteBlock(int64(i*7)%cfg.UserBlocks, now); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain(now + sim.Second)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := New(cfg, twoGroup{}).decodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	viaImage, err := RecoverImage(img, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	viaStream, err := Recover(&buf, cfg, twoGroup{})
	if err != nil {
		t.Fatal(err)
	}
	if err := viaImage.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < cfg.UserBlocks; lba++ {
		if a, b := viaImage.mapping[lba], viaStream.mapping[lba]; a != b {
			t.Fatalf("lba %d: image maps %d, stream maps %d", lba, a, b)
		}
	}

	sealed := -1
	for id, si := range img.Segments {
		if si.State == SegmentSealed {
			sealed = id
			break
		}
	}
	if sealed < 0 {
		t.Fatal("workload sealed no segment")
	}
	for name, corrupt := range map[string]func(*Image){
		"segment count":  func(im *Image) { im.Segments = im.Segments[1:] },
		"versions":       func(im *Image) { im.Segments[sealed].Versions = im.Segments[sealed].Versions[1:] },
		"negative group": func(im *Image) { im.Segments[sealed].Group = -1 },
		"short sealed": func(im *Image) {
			si := &im.Segments[sealed]
			si.LBAs, si.Versions = si.LBAs[1:], si.Versions[1:]
		},
		"lba range": func(im *Image) { im.Segments[sealed].LBAs[0] = cfg.UserBlocks },
	} {
		bad := img
		bad.Segments = make([]SegmentImage, len(img.Segments))
		for i, si := range img.Segments {
			si.LBAs = append([]int64(nil), si.LBAs...)
			si.Versions = append([]int64(nil), si.Versions...)
			bad.Segments[i] = si
		}
		corrupt(&bad)
		if _, err := RecoverImage(bad, cfg, twoGroup{}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: got %v, want ErrBadCheckpoint", name, err)
		}
	}
}
