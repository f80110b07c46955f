package harness

import (
	"testing"
	"time"
)

// TestLiveExperimentsSmoke runs both served-stack experiments briefly
// for one policy — ExpTailTrace, and ExpGCSched's live rows in both GC
// modes — over loopback, through group commit: each must complete ops
// and return no error.
func TestLiveExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a stack over loopback")
	}
	sc := SmallScale()
	tt := DefaultTailTraceOptions(sc)
	tt.Duration = 200 * time.Millisecond
	res, err := ExpTailTrace(sc, []string{"sepgc"}, tt)
	if err != nil {
		t.Fatalf("tailtrace: %v", err)
	}
	if row := res.Rows[0]; row.Ops == 0 || row.P999 <= 0 {
		t.Fatalf("tailtrace row is empty: %+v", row)
	}

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
