package nbd

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adapt/internal/nbd/nbdtest"
)

// readAll drains the whole export in fixed-size chunks.
func readAll(c *nbdtest.Client, size uint64, step uint32) ([]byte, error) {
	out := make([]byte, 0, size)
	for off := uint64(0); off < size; off += uint64(step) {
		n := step
		if size-off < uint64(n) {
			n = uint32(size - off)
		}
		buf, err := c.Read(off, n)
		if err != nil {
			return nil, fmt.Errorf("read at %d: %w", off, err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

// TestAlignBlockSpanArithmetic pins the pure offset arithmetic of the
// alignment layer against a brute-force model.
func TestAlignBlockSpanArithmetic(t *testing.T) {
	s := &Server{blockBytes: testBlockBytes}
	for off := uint64(0); off < 3*testBlockBytes; off++ {
		for length := uint32(1); length <= 2*testBlockBytes; length++ {
			start, end := s.blockSpan(off, length)
			// Brute force: which blocks does [off, off+length) touch?
			wantStart := int64(off) / testBlockBytes
			wantEnd := (int64(off) + int64(length) + testBlockBytes - 1) / testBlockBytes
			if start != wantStart || end != wantEnd {
				t.Fatalf("blockSpan(%d,%d) = [%d,%d), want [%d,%d)", off, length, start, end, wantStart, wantEnd)
			}
			// And the trim interior must be the fully-covered subset.
			first := (int64(off) + testBlockBytes - 1) / testBlockBytes
			past := (int64(off) + int64(length)) / testBlockBytes
			for b := start; b < end; b++ {
				covered := int64(off) <= b*testBlockBytes && (b+1)*testBlockBytes <= int64(off)+int64(length)
				inTrim := b >= first && b < past
				if covered != inTrim {
					t.Fatalf("trim interior of (%d,%d): block %d covered=%v inTrim=%v", off, length, b, covered, inTrim)
				}
			}
		}
	}
}

// TestAlignPropertyShadow is the satellite property test: any sequence
// of unaligned NBD writes and reads is byte-equivalent to the same
// sequence applied to a flat shadow buffer — including spans that
// cross chunk boundaries (8 blocks) and shard boundaries (the 4-shard
// engine splits one volume's LBA space into 4 contiguous slices).
func TestAlignPropertyShadow(t *testing.T) {
	const (
		shards      = 4
		userBlocks  = 4096
		chunkBytes  = 8 * testBlockBytes
		shardBlocks = userBlocks / shards
		shardBytes  = shardBlocks * testBlockBytes
	)
	poisonReleases(t)
	st := newStack(t, stackConfig{userBlocks: userBlocks, volumes: 1, shards: shards})
	size := uint64(st.srv.VolumeBlocks()) * testBlockBytes
	if size != userBlocks*testBlockBytes {
		t.Fatalf("one volume over the whole engine: size %d, want %d", size, userBlocks*testBlockBytes)
	}

	// Interesting byte offsets: every chunk boundary and shard boundary
	// (±1, ±17), so spans straddle them from both sides.
	var hot []uint64
	for _, base := range []uint64{chunkBytes, shardBytes, 2 * shardBytes, 3 * shardBytes} {
		for _, d := range []int64{-17, -1, 0, 1, 17} {
			hot = append(hot, uint64(int64(base)+d))
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := dialExport(t, st.addr, "vol0")
			rng := rand.New(rand.NewSource(seed))
			shadow := make([]byte, size)
			// The engine's state persists across subtests (one shared
			// stack), so start from a known image.
			if err := c.WriteZeroes(0, uint32(size), 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				var off uint64
				if rng.Intn(2) == 0 {
					off = hot[rng.Intn(len(hot))] + uint64(rng.Intn(7))
				} else {
					off = uint64(rng.Int63n(int64(size)))
				}
				maxLen := size - off
				// Long enough to cross a chunk (and at a shard edge, the
				// shard boundary) in one request.
				if maxLen > 3*chunkBytes {
					maxLen = 3 * chunkBytes
				}
				n := uint32(1 + rng.Int63n(int64(maxLen)))
				if rng.Intn(3) == 0 {
					got, err := c.Read(off, n)
					if err != nil {
						t.Fatalf("op %d: read(%d,%d): %v", i, off, n, err)
					}
					if !bytes.Equal(got, shadow[off:off+uint64(n)]) {
						t.Fatalf("op %d: read(%d,%d) diverged from shadow", i, off, n)
					}
					continue
				}
				data := make([]byte, n)
				rng.Read(data)
				if err := c.Write(off, data, 0); err != nil {
					t.Fatalf("op %d: write(%d,%d): %v", i, off, n, err)
				}
				copy(shadow[off:], data)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := readAll(c, size, 32*testBlockBytes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow) {
				for i := range got {
					if got[i] != shadow[i] {
						t.Fatalf("final image diverges at byte %d (block %d, shard %d)",
							i, i/testBlockBytes, i/shardBytes)
					}
				}
			}
		})
	}
}

func BenchmarkNBDRoundtrip(b *testing.B) {
	st := newStack(b, stackConfig{userBlocks: 65536, volumes: 1, shards: 4})
	c := dialExport(b, st.addr, "vol0")
	size := c.Info().Size

	for _, bc := range []struct {
		name    string
		bytes   int
		aligned bool
		write   bool
	}{
		{"write-4KiB-aligned", 4096, true, true},
		{"write-4KiB-unaligned", 4096, false, true},
		{"read-4KiB-aligned", 4096, true, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			data := make([]byte, bc.bytes)
			rng.Read(data)
			b.SetBytes(int64(bc.bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := uint64(rng.Int63n(int64(size)-int64(bc.bytes)-testBlockBytes)) &^ (testBlockBytes - 1)
				if !bc.aligned {
					off += 7
				}
				if bc.write {
					if err := c.Write(off, data, 0); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := c.Read(off, uint32(bc.bytes)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
