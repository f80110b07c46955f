package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies an instrument for exposition.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Instrument is a named scalar metric. Histograms are registered
// separately and do not implement Instrument.
type Instrument interface {
	Name() string
	Help() string
	Kind() Kind
	// Cumulative reports whether the value is monotonically
	// accumulated, so that the recorder should emit per-window deltas
	// (counters and counter-like function gauges) rather than samples.
	Cumulative() bool
	// Load returns the current value; a function gauge evaluates its
	// callback, under its guard if it has one.
	Load() int64
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Name implements Instrument.
func (c *Counter) Name() string { return c.name }

// Help implements Instrument.
func (c *Counter) Help() string { return c.help }

// Kind implements Instrument.
func (c *Counter) Kind() Kind { return KindCounter }

// Cumulative implements Instrument.
func (c *Counter) Cumulative() bool { return true }

// Add increments the counter by d. Nil-safe.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Load implements Instrument. Nil-safe.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic point-in-time value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Name implements Instrument.
func (g *Gauge) Name() string { return g.name }

// Help implements Instrument.
func (g *Gauge) Help() string { return g.help }

// Kind implements Instrument.
func (g *Gauge) Kind() Kind { return KindGauge }

// Cumulative implements Instrument.
func (g *Gauge) Cumulative() bool { return false }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d. Nil-safe.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load implements Instrument. Nil-safe.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FuncGauge reads owner state through a callback, evaluated on every
// read. A gauge registered through a Guarded registry evaluates under
// that registry's lock, so it may read state the lock protects while
// the owner mutates it; an unguarded one must read only atomics or
// state nobody mutates during the read.
type FuncGauge struct {
	name, help string
	cumulative bool
	fn         func() int64
	guard      sync.Locker
}

// Name implements Instrument.
func (f *FuncGauge) Name() string { return f.name }

// Help implements Instrument.
func (f *FuncGauge) Help() string { return f.help }

// Kind implements Instrument.
func (f *FuncGauge) Kind() Kind {
	if f.cumulative {
		return KindCounter
	}
	return KindGauge
}

// Cumulative implements Instrument.
func (f *FuncGauge) Cumulative() bool { return f.cumulative }

// Load implements Instrument.
func (f *FuncGauge) Load() int64 {
	if f.guard != nil {
		f.guard.Lock()
		defer f.guard.Unlock()
	}
	return f.fn()
}

// Histogram is a fixed-bucket histogram with atomic counts. Bucket i
// counts observations v <= Bounds[i]; one overflow bucket counts the
// rest.
type Histogram struct {
	name, help string
	bounds     []int64
	buckets    []atomic.Int64 // len(bounds)+1, last is overflow
	count      atomic.Int64
	sum        atomic.Int64
}

// Name returns the histogram name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. Nil-safe and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count of observations <= Bounds[i], or the
// overflow count for i == len(Bounds).
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Bounds returns the upper bucket bounds.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Registry holds named instruments in registration order. Views made
// by Guarded share the instruments and differ only in the lock they
// attach to the function gauges registered through them.
type Registry struct {
	*instruments
	guard sync.Locker
}

type instruments struct {
	mu      sync.Mutex
	scalars []Instrument
	hists   []*Histogram
	names   map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: &instruments{names: make(map[string]bool)}}
}

// Guarded returns a view of r that registers into the same instruments
// but evaluates every function gauge registered through it under mu —
// the lock its owner mutates the gauged state under.
func (r *Registry) Guarded(mu sync.Locker) *Registry {
	return &Registry{instruments: r.instruments, guard: mu}
}

func (r *Registry) register(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
}

// NewCounter registers and returns an atomic counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	c := &Counter{name: name, help: help}
	r.scalars = append(r.scalars, c)
	return c
}

// NewGauge registers and returns an atomic gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	g := &Gauge{name: name, help: help}
	r.scalars = append(r.scalars, g)
	return g
}

// NewFuncGauge registers a function-backed gauge. cumulative marks
// counter-like values the recorder should delta per window. See the
// FuncGauge concurrency contract.
func (r *Registry) NewFuncGauge(name, help string, cumulative bool, fn func() int64) *FuncGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	f := &FuncGauge{name: name, help: help, cumulative: cumulative, fn: fn, guard: r.guard}
	r.scalars = append(r.scalars, f)
	return f
}

// NewHistogram registers a fixed-bucket histogram with the given upper
// bucket bounds (ascending).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists = append(r.hists, h)
	return h
}

// Scalars returns the scalar instruments in registration order.
func (r *Registry) Scalars() []Instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Instrument(nil), r.scalars...)
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Histogram(nil), r.hists...)
}

// Names returns every registered metric name (scalars and histograms),
// sorted. Used by audits that pin the metric surface to a golden list.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.names))
	for n := range r.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteProm renders Prometheus text exposition format, evaluating the
// function gauges as it goes (see loadAll for the locking).
// Labelled instruments are registered as name{label="v"} strings; the
// format wants every sample of a family contiguous under one HELP/TYPE
// header, so instances are grouped by family (families in order of
// first registration) whatever order they registered in.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	scalars := append([]Instrument(nil), r.scalars...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	vals := loadAll(scalars)
	var b bytes.Buffer
	order, members := families(len(scalars), func(i int) string { return scalars[i].Name() })
	for _, fam := range order {
		first := scalars[members[fam][0]]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam, first.Help(), fam, first.Kind())
		for _, i := range members[fam] {
			fmt.Fprintf(&b, "%s %d\n", scalars[i].Name(), vals[i])
		}
	}
	order, members = families(len(hists), func(i int) string { return hists[i].name })
	for _, fam := range order {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", fam, hists[members[fam][0]].help, fam)
		for _, i := range members[fam] {
			h := hists[i]
			// The instance's own labels go inside the braces of every
			// series, ahead of le on the buckets.
			labels := strings.TrimSuffix(strings.TrimPrefix(h.name[len(fam):], "{"), "}")
			bucketLabels, series := labels, ""
			if labels != "" {
				bucketLabels, series = labels+",", "{"+labels+"}"
			}
			var cum int64
			for j, bound := range h.bounds {
				cum += h.Bucket(j)
				fmt.Fprintf(&b, "%s_bucket{%sle=\"%d\"} %d\n", fam, bucketLabels, bound, cum)
			}
			cum += h.Bucket(len(h.bounds))
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
				fam, bucketLabels, cum, fam, series, h.Sum(), fam, series, h.Count())
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// loadAll reads every scalar. Each guard is taken once, for all the
// gauges it covers, and released before the next is taken, so a scrape
// of a sharded engine holds one shard lock at a time, never all of them.
func loadAll(scalars []Instrument) []int64 {
	vals := make([]int64, len(scalars))
	read := make([]bool, len(scalars))
	for i, in := range scalars {
		if read[i] {
			continue
		}
		f, ok := in.(*FuncGauge)
		if !ok || f.guard == nil {
			vals[i] = in.Load()
			continue
		}
		f.guard.Lock()
		for j := i; j < len(scalars); j++ {
			if g, ok := scalars[j].(*FuncGauge); ok && g.guard == f.guard {
				vals[j], read[j] = g.fn(), true
			}
		}
		f.guard.Unlock()
	}
	return vals
}

// families groups n registered names by metric family (promBase): the
// family names in order of first appearance, and each family's member
// indices in registration order.
func families(n int, name func(i int) string) (order []string, members map[string][]int) {
	members = make(map[string][]int)
	for i := 0; i < n; i++ {
		fam := promBase(name(i))
		if members[fam] == nil {
			order = append(order, fam)
		}
		members[fam] = append(members[fam], i)
	}
	return order, members
}

// promBase strips a {label="..."} suffix from a metric name, leaving
// the family name the HELP and TYPE lines refer to.
func promBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// LabelValue extracts the value of a {key="value"} label embedded in a
// metric name, or "" when absent or the braces do not close.
func LabelValue(name, key string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return ""
	}
	rest := name[i+1 : len(name)-1]
	for _, part := range strings.Split(rest, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) == 2 && kv[0] == key {
			return strings.Trim(kv[1], `"`)
		}
	}
	return ""
}
