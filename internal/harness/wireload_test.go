package harness

import (
	"testing"
	"time"
)

// TestGCSchedLiveSmoke runs ExpGCSched's live rows briefly for one
// policy in both GC modes, over loopback, through group commit: each
// must complete ops and return no error.
func TestGCSchedLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a stack over loopback")
	}
	sc := SmallScale()
	gs := DefaultGCSchedOptions(sc)
	gs.Blocks = sc.YCSBBlocks / 4
	gs.Duration = 200 * time.Millisecond
	for _, background := range []bool{false, true} {
		row, err := runGCSchedMode(sc, "sepgc", gs, background)
		if err != nil {
			t.Fatalf("gcsched live (background=%v): %v", background, err)
		}
		if row.Ops == 0 || row.P999 <= 0 {
			t.Fatalf("gcsched live row is empty: %+v", row)
		}
	}
}
