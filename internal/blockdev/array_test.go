package blockdev

import (
	"bytes"
	"testing"
	"testing/quick"

	"adapt/internal/sim"
)

func TestArrayAccounting(t *testing.T) {
	a := NewArray(3, 64<<10)
	for i := 0; i < 6; i++ {
		a.WriteChunk(64<<10, 0)
	}
	if a.DataChunks() != 6 {
		t.Fatalf("DataChunks = %d, want 6", a.DataChunks())
	}
	if a.ParityChunks() != 2 {
		t.Fatalf("ParityChunks = %d, want 2 (two full stripes)", a.ParityChunks())
	}
	if a.TotalBytes() != 8*64<<10 {
		t.Fatalf("TotalBytes = %d", a.TotalBytes())
	}
}

func TestArrayPadding(t *testing.T) {
	a := NewArray(3, 64<<10)
	a.WriteChunk(16<<10, 48<<10)
	if a.PayloadBytes() != 16<<10 || a.PaddingBytes() != 48<<10 {
		t.Fatalf("payload=%d pad=%d", a.PayloadBytes(), a.PaddingBytes())
	}
}

func TestArrayRejectsPartialChunk(t *testing.T) {
	a := NewArray(3, 64<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("short chunk write did not panic")
		}
	}()
	a.WriteChunk(10, 10)
}

func TestArrayColumnBalance(t *testing.T) {
	a := NewArray(3, 4096)
	const stripes = 1000
	for i := 0; i < stripes*3; i++ {
		a.WriteChunk(4096, 0)
	}
	cols := a.ColumnWrites()
	var total int64
	for _, c := range cols {
		total += c
	}
	if total != stripes*4 {
		t.Fatalf("total column writes = %d, want %d", total, stripes*4)
	}
	// Rotating parity must keep all columns within a small band.
	for i, c := range cols {
		if c < stripes*9/10 || c > stripes*11/10 {
			t.Fatalf("column %d unbalanced: %d of %d stripes", i, c, stripes)
		}
	}
}

func TestArrayParityPerStripe(t *testing.T) {
	a := NewArray(4, 4096)
	for i := 0; i < 10; i++ {
		a.WriteChunk(4096, 0)
	}
	// 10 data chunks with D=4 → 2 complete stripes → 2 parity chunks.
	if a.ParityChunks() != 2 {
		t.Fatalf("ParityChunks = %d, want 2", a.ParityChunks())
	}
}

// TestArrayColumnSequence pins the rotating layout WriteChunk reports:
// stripe r puts its parity on column r mod (D+1), its data chunks on
// the other columns in order, and the parity column is reported with
// the chunk that closes the stripe.
func TestArrayColumnSequence(t *testing.T) {
	a := NewArray(3, 4096)
	want := [][2]int{
		{1, -1}, {2, -1}, {3, 0},
		{0, -1}, {2, -1}, {3, 1},
		{0, -1}, {1, -1}, {3, 2},
		{0, -1}, {1, -1}, {2, 3},
		{1, -1}, {2, -1}, {3, 0},
	}
	for i, w := range want {
		if d, p := a.WriteChunk(4096, 0); d != w[0] || p != w[1] {
			t.Fatalf("chunk %d: columns (%d, %d), want (%d, %d)", i, d, p, w[0], w[1])
		}
	}
}

func TestDataArrayRoundTrip(t *testing.T) {
	d := NewDataArray(3, 64)
	rng := sim.NewRNG(1)
	stripe := make([][]byte, 3)
	for i := range stripe {
		stripe[i] = make([]byte, 64)
		for j := range stripe[i] {
			stripe[i][j] = byte(rng.Uint64())
		}
	}
	if err := d.WriteStripe(stripe); err != nil {
		t.Fatal(err)
	}
	for i := range stripe {
		got, err := d.ReadChunk(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stripe[i]) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

func TestDataArrayRejectsBadStripes(t *testing.T) {
	d := NewDataArray(3, 64)
	if err := d.WriteStripe(make([][]byte, 2)); err == nil {
		t.Fatal("wrong chunk count accepted")
	}
	bad := [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 10)}
	if err := d.WriteStripe(bad); err == nil {
		t.Fatal("short chunk accepted")
	}
	if _, err := d.ReadChunk(5, 0); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := d.ReconstructColumn(0, 0); err == nil {
		t.Fatal("reconstruct on empty array accepted")
	}
}

// TestDataArrayReconstruction is the RAID-5 recovery property test:
// losing any single column of any stripe is recoverable by XOR.
func TestDataArrayReconstruction(t *testing.T) {
	f := func(seed uint64, rows uint8) bool {
		d := NewDataArray(3, 32)
		rng := sim.NewRNG(seed)
		n := int(rows%8) + 1
		original := make([][][]byte, n)
		for r := 0; r < n; r++ {
			stripe := make([][]byte, 3)
			for i := range stripe {
				stripe[i] = make([]byte, 32)
				for j := range stripe[i] {
					stripe[i][j] = byte(rng.Uint64())
				}
			}
			original[r] = stripe
			if err := d.WriteStripe(stripe); err != nil {
				return false
			}
		}
		for r := 0; r < n; r++ {
			for lost := 0; lost <= 3; lost++ {
				rec, err := d.ReconstructColumn(int64(r), lost)
				if err != nil {
					return false
				}
				// The reconstructed column must equal what was stored there.
				if !bytes.Equal(rec, d.disks[lost][r]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkArrayWriteChunk(b *testing.B) {
	a := NewArray(3, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.WriteChunk(64<<10, 0)
	}
}
