package telemetry

import (
	"sync"

	"adapt/internal/sim"
)

// IntervalKind classifies an interference interval.
type IntervalKind uint8

// Interference sources that can delay foreground requests.
const (
	// IntervalGC is a log-structured-store GC cycle.
	IntervalGC IntervalKind = iota
	// IntervalDegraded is a window where a RAID column is failed and
	// reads on it pay reconstruction fan-out.
	IntervalDegraded
)

func (k IntervalKind) String() string {
	switch k {
	case IntervalGC:
		return "gc"
	case IntervalDegraded:
		return "degraded"
	default:
		return "interval"
	}
}

// Interval is one interference window on the shared clock. End == 0
// means the interval is still open (e.g. a column failed and not yet
// rebuilt).
type Interval struct {
	Kind   IntervalKind
	ID     int64 // GC cycle number, or failure generation
	Column int32 // RAID column, -1 when not column-specific
	Shard  int32 // engine shard that published the window, -1 unsharded
	Start  sim.Time
	End    sim.Time
}

// Overlap returns the length of the intersection of the interval with
// [a, b], in nanoseconds. Open intervals extend to b.
func (iv Interval) Overlap(a, b sim.Time) int64 {
	end := iv.End
	if end == 0 || end > b {
		end = b
	}
	start := iv.Start
	if start < a {
		start = a
	}
	if end <= start {
		return 0
	}
	return int64(end - start)
}

// IntervalLog records interference intervals for post-hoc attribution
// of slow requests. Closed intervals live in a bounded ring (oldest
// evicted first); open intervals are tracked by token until closed.
// Publication is infrequent (per GC cycle, per fault transition), so a
// mutex suffices. All methods are nil-safe.
type IntervalLog struct {
	mu      sync.Mutex
	ring    []Interval
	head    int // next write position
	full    bool
	open    map[int64]Interval
	nextTok int64
	total   int64
}

// NewIntervalLog creates a log keeping up to capacity closed intervals.
func NewIntervalLog(capacity int) *IntervalLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &IntervalLog{ring: make([]Interval, capacity), open: make(map[int64]Interval)}
}

// Add records a closed interval. Nil-safe.
func (l *IntervalLog) Add(iv Interval) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.push(iv)
}

func (l *IntervalLog) push(iv Interval) {
	l.ring[l.head] = iv
	l.head++
	l.total++
	if l.head == len(l.ring) {
		l.head = 0
		l.full = true
	}
}

// Open starts an open-ended interval and returns a token for Close.
// Nil-safe; returns 0 on a nil log (Close ignores token 0 gracefully).
func (l *IntervalLog) Open(kind IntervalKind, id int64, column, shard int32, start sim.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextTok++
	tok := l.nextTok
	l.open[tok] = Interval{Kind: kind, ID: id, Column: column, Shard: shard, Start: start}
	return tok
}

// Close ends the open interval identified by tok at end, moving it to
// the closed ring. Unknown tokens are ignored. Nil-safe.
func (l *IntervalLog) Close(tok int64, end sim.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	iv, ok := l.open[tok]
	if !ok {
		return
	}
	delete(l.open, tok)
	iv.End = end
	l.push(iv)
}

// Snapshot returns the retained closed intervals (oldest first)
// followed by any open intervals. Nil-safe.
func (l *IntervalLog) Snapshot() []Interval {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Interval
	if l.full {
		out = append(out, l.ring[l.head:]...)
	}
	out = append(out, l.ring[:l.head]...)
	for _, iv := range l.open {
		out = append(out, iv)
	}
	return out
}

// Total returns the number of closed intervals ever recorded.
func (l *IntervalLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
