package harness

import (
	"strings"
	"testing"
)

func TestExpStreams(t *testing.T) {
	sc := tinyScale()
	rows, err := ExpStreams(sc, []string{"sepgc", PolicyADAPT})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SingleWA < 1 || r.MultiWA < 1 {
			t.Fatalf("%s device WA below 1: %+v", r.Policy, r)
		}
		// Group→stream mapping must not hurt in-device WA.
		if r.MultiWA > r.SingleWA*1.02 {
			t.Fatalf("%s: multi-stream WA %.3f worse than single %.3f",
				r.Policy, r.MultiWA, r.SingleWA)
		}
	}
	if out := RenderStreams(rows); !strings.Contains(out, "multiStreamWA") {
		t.Error("render broken")
	}
}

func TestExpChunkSize(t *testing.T) {
	sc := tinyScale()
	cells, err := ExpChunkSize(sc, []string{"sepgc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells", len(cells))
	}
	// Larger chunks pad more under the same (sparse-ish) workload.
	first, last := cells[0], cells[len(cells)-1]
	if last.PadRat < first.PadRat {
		t.Fatalf("128KiB chunks pad less (%.3f) than 16KiB (%.3f)",
			last.PadRat, first.PadRat)
	}
	if out := RenderExt("t", cells); !strings.Contains(out, "chunk=16KiB") {
		t.Error("render broken")
	}
}

func TestExpSLAWindow(t *testing.T) {
	sc := tinyScale()
	cells, err := ExpSLAWindow(sc, []string{"sepgc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("%d cells", len(cells))
	}
	// A longer window can only reduce padding.
	if cells[len(cells)-1].PadRat > cells[0].PadRat+1e-9 {
		t.Fatalf("500us window pads more (%.3f) than 20us (%.3f)",
			cells[len(cells)-1].PadRat, cells[0].PadRat)
	}
}

func TestExpVictims(t *testing.T) {
	sc := tinyScale()
	cells, err := ExpVictims(sc, []string{"sepgc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("%d cells", len(cells))
	}
	byVictim := map[string]SweepCell{}
	for _, c := range cells {
		byVictim[c.Setting] = c
	}
	// Informed selection beats random on a skewed workload.
	if byVictim["greedy"].GCWA >= byVictim["random-greedy"].GCWA {
		t.Fatalf("greedy GC WA %.3f not better than random %.3f",
			byVictim["greedy"].GCWA, byVictim["random-greedy"].GCWA)
	}
}

func TestExpLatency(t *testing.T) {
	sc := tinyScale()
	cells, err := ExpLatency(sc, []string{"sepgc", PolicyADAPT})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.MeanUS <= 0 || c.MeanUS > 100 {
			t.Fatalf("%s mean latency %.1fµs outside the SLA window", c.Policy, c.MeanUS)
		}
		// Violations can only come from the final drain: bounded by the
		// number of groups times the chunk size.
		if c.Violations > 6*16 {
			t.Fatalf("%s has %d violations — SLA machinery broken", c.Policy, c.Violations)
		}
	}
	if out := RenderLatency(cells); !strings.Contains(out, "p99") {
		t.Error("render broken")
	}
}
