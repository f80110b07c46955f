package bufpool

import "testing"

// TestClassFit pins the class arithmetic: every length gets the
// smallest class that holds it, a frame of a power-of-two payload plus
// its header stays in that payload's class, and lengths past the
// largest class fall back to plain allocation.
func TestClassFit(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{
		{0, 320}, {1, 320}, {320, 320}, {321, 576},
		{4096, 4160}, {4096 + 32, 4160}, {4096 + 64, 4160}, {4096 + 65, 8256},
		{8 << 20, 8<<20 + 64}, {8<<20 + 64, 8<<20 + 64},
	} {
		b := Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
		Put(b)
	}
	if b := Get(8<<20 + 65); cap(b) != 8<<20+65 {
		t.Errorf("Get past the largest class: cap %d, want an exact allocation", cap(b))
	}
}

// TestPutPoisonsAndRecycles checks that a released buffer is filled
// with PoisonByte while poisoning is on, that a foreign slice is never
// taken in, and that Get hands recycled buffers back out.
func TestPutPoisonsAndRecycles(t *testing.T) {
	defer SetPoison(SetPoison(true))
	b := Get(100)
	for i := range b {
		b[i] = 1
	}
	Put(b)
	for i, c := range b[:cap(b)] {
		if c != PoisonByte {
			t.Fatalf("byte %d after Put = %#x, want poison %#x", i, c, PoisonByte)
		}
	}
	foreign := make([]byte, 10, 100)
	Put(foreign)
	if foreign[0] != 0 {
		t.Fatal("Put poisoned a slice whose capacity is no class size")
	}
	if Get(1) == nil || Get(0) == nil {
		t.Fatal("Get returned nil")
	}
}

func TestGetAllocatesNothingWhenWarm(t *testing.T) {
	Put(Get(4096))
	if n := testing.AllocsPerRun(100, func() { Put(Get(4096)) }); n > 0 {
		t.Errorf("warm Get/Put of 4 KiB: %.1f allocs, want 0", n)
	}
}
