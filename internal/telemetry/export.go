package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"adapt/internal/sim"
)

// Derived holds the per-window quantities the paper's evaluation
// reasons about over time, computed from a window's canonical metric
// deltas.
type Derived struct {
	// WA is the window's GC write amplification: (Δuser+Δgc)/Δuser.
	// Windows with no user writes report 0.
	WA float64 `json:"wa"`
	// EffectiveWA additionally charges shadow and padding traffic.
	EffectiveWA float64 `json:"eff_wa"`
	// PaddingRatio is Δpad over all Δblock traffic in the window.
	PaddingRatio float64 `json:"pad_ratio"`
	// GCCycles and SegmentsReclaimed are window deltas.
	GCCycles          int64 `json:"gc_cycles"`
	SegmentsReclaimed int64 `json:"segments_reclaimed"`
	// GCCyclesPerSec is the GC activation rate over the window.
	GCCyclesPerSec float64 `json:"gc_cycles_per_s"`
	// GroupShare maps group label -> share of the window's block
	// traffic landing in that group (per-group utilization).
	GroupShare map[string]float64 `json:"group_share,omitempty"`
}

// Derive computes the window's derived quantities.
func Derive(w *Window) Derived {
	user, _ := w.Delta(MetricUserBlocks)
	gc, _ := w.Delta(MetricGCBlocks)
	shadow, _ := w.Delta(MetricShadowBlocks)
	pad, _ := w.Delta(MetricPaddingBlocks)
	var d Derived
	total := user + gc + shadow + pad
	if user > 0 {
		d.WA = float64(user+gc) / float64(user)
		d.EffectiveWA = float64(total) / float64(user)
	}
	if total > 0 {
		d.PaddingRatio = float64(pad) / float64(total)
	}
	d.GCCycles, _ = w.Delta(MetricGCCycles)
	d.SegmentsReclaimed, _ = w.Delta(MetricSegmentsReclaimed)
	if dur := w.Duration(); dur > 0 {
		d.GCCyclesPerSec = float64(d.GCCycles) / dur.Seconds()
	}
	if total > 0 {
		for i, name := range w.Names {
			if promBase(name) == MetricGroupBlocksPrefix {
				if d.GroupShare == nil {
					d.GroupShare = make(map[string]float64)
				}
				d.GroupShare[LabelValue(name, "group")] = float64(w.Deltas[i]) / float64(total)
			}
		}
	}
	return d
}

// windowJSON is the JSONL wire form of a window.
type windowJSON struct {
	Index   int64            `json:"window"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Deltas  map[string]int64 `json:"deltas"`
	Values  map[string]int64 `json:"values"`
	Derived *Derived         `json:"derived,omitempty"`
}

// WriteWindowsJSONL writes the windows as one JSON object per line,
// each carrying cumulative values, per-window deltas, and the derived
// per-window WA/padding/GC quantities.
func WriteWindowsJSONL(w io.Writer, windows []Window) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range windows {
		win := &windows[i]
		row := windowJSON{
			Index:   win.Index,
			StartNS: int64(win.Start),
			EndNS:   int64(win.End),
			Deltas:  make(map[string]int64, len(win.Names)),
			Values:  make(map[string]int64, len(win.Names)),
		}
		for j, name := range win.Names {
			row.Deltas[name] = win.Deltas[j]
			row.Values[name] = win.Values[j]
		}
		d := Derive(win)
		row.Derived = &d
		if err := enc.Encode(&row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWindowsJSONL parses a dump written by WriteWindowsJSONL back
// into windows, so a recorded time-series can be replayed into the
// harness's stats tables offline.
func ReadWindowsJSONL(r io.Reader) ([]Window, error) {
	dec := json.NewDecoder(r)
	var out []Window
	for {
		var row windowJSON
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: window %d: %w", len(out), err)
		}
		names := make([]string, 0, len(row.Deltas))
		for name := range row.Deltas {
			names = append(names, name)
		}
		sort.Strings(names)
		w := Window{
			Index:  row.Index,
			Start:  sim.Time(row.StartNS),
			End:    sim.Time(row.EndNS),
			Names:  names,
			Values: make([]int64, len(names)),
			Deltas: make([]int64, len(names)),
		}
		for i, name := range names {
			w.Deltas[i] = row.Deltas[name]
			w.Values[i] = row.Values[name]
		}
		out = append(out, w)
	}
	return out, nil
}

// WriteWindowsCSV writes the windows as CSV: fixed derived columns
// followed by one delta column per scalar metric (union of names
// across windows, first-seen order).
func WriteWindowsCSV(w io.Writer, windows []Window) error {
	var names []string
	seen := make(map[string]bool)
	for i := range windows {
		for _, n := range windows[i].Names {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "window,start_ns,end_ns,wa,eff_wa,pad_ratio,gc_cycles,segments_reclaimed")
	for _, n := range names {
		fmt.Fprintf(bw, ",%q", n)
	}
	fmt.Fprintln(bw)
	for i := range windows {
		win := &windows[i]
		d := Derive(win)
		fmt.Fprintf(bw, "%d,%d,%d,%.6f,%.6f,%.6f,%d,%d",
			win.Index, int64(win.Start), int64(win.End),
			d.WA, d.EffectiveWA, d.PaddingRatio, d.GCCycles, d.SegmentsReclaimed)
		for _, n := range names {
			v, _ := win.Delta(n)
			fmt.Fprintf(bw, ",%d", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
