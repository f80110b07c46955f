package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names what a span timed. The traced run records spans from
// the bench's own files, around the calls into each layer, on the public
// seams the repo already has; spans inside the program are a later
// change.
type spanKind uint8

const (
	// kindRequest is one request's residence in the server, seen from the
	// accepted connection: first request byte read → last response byte
	// written. It is the root of the request's span tree.
	kindRequest spanKind = iota
	// kindBackend* are calls through server.VolumeBackend (the NBD
	// frontend's seam): a write's span runs until its done callback.
	kindBackendRead
	kindBackendWrite
	kindBackendFlush
	// kindEngine* are calls through prototype.Ingest. A group commit is
	// one call carrying many requests' writes; it is recorded once per
	// member, so each member's request gets the commit as its child.
	kindEngineRead
	kindEngineWrite
	kindEngineTrim
)

var kindNames = [...]string{
	kindRequest:      "request",
	kindBackendRead:  "backend.read",
	kindBackendWrite: "backend.write",
	kindBackendFlush: "backend.flush",
	kindEngineRead:   "engine.read",
	kindEngineWrite:  "engine.write",
	kindEngineTrim:   "engine.trim",
}

func (k spanKind) isBackend() bool { return k >= kindBackendRead && k <= kindBackendFlush }
func (k spanKind) isEngine() bool  { return k >= kindEngineRead }

// span is one timed interval. Times are ns since the recorder's epoch.
// vol/first/past locate the blocks it touched, which is how children
// find their parent: no two in-flight requests on a volume overlap, so
// at any instant a block belongs to at most one request.
type span struct {
	kind       spanKind
	write      bool  // request spans: the request is a write
	vol        int16 // -1: not a data span (flush)
	parent     int32 // index into the span buffer; -1 for a root
	first      int32
	past       int32
	start, end int64
	req        uint64 // request spans: the frontend's request id
	call       int64  // engine spans: the engine call it belongs to
	lockWaitNS int64  // engine spans: from the engine's OpTiming
	sinkNS     int64
}

// recorder is the traced run's span sink: a preallocated buffer claimed
// slot by slot with one atomic add, written out only when the run ends.
type recorder struct {
	enabled atomic.Bool
	epoch   time.Time
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64

	engineCalls  atomic.Int64
	backendCalls atomic.Int64
	frames       atomic.Int64
	policy       policyCounters
}

// maxSpans bounds the buffer (≈ 64 B each); a run that outgrows it
// counts the overflow and reports it.
const maxSpans = 2 << 20

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, maxSpans)}
}

func (r *recorder) on() bool   { return r.enabled.Load() }
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	s.parent = -1
	r.spans[i] = s
}

// recorded returns the spans written so far. Call only once the load
// has quiesced.
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// blockIndex lists, per (volume, block), the candidate parent spans that
// cover the block, ordered by start. Spans covering one block never
// overlap in time, so the parent of a child touching that block is the
// last candidate that started at or before it.
type blockIndex map[int32][]int32

func blockKey(vol int16, block int32) int32 { return int32(vol)<<24 | block }

func (ix blockIndex) add(spans []span, i int32) {
	s := &spans[i]
	for b := s.first; b < s.past; b++ {
		k := blockKey(s.vol, b)
		ix[k] = append(ix[k], i)
	}
}

func (ix blockIndex) sort(spans []span) {
	for _, l := range ix {
		sort.Slice(l, func(a, b int) bool { return spans[l[a]].start < spans[l[b]].start })
	}
}

// find returns the candidate that covers c's blocks and contains it in
// time, or -1.
func (ix blockIndex) find(spans []span, c *span) int32 {
	l := ix[blockKey(c.vol, c.first)]
	i := sort.Search(len(l), func(i int) bool { return spans[l[i]].start > c.start }) - 1
	if i < 0 {
		return -1
	}
	p := &spans[l[i]]
	if p.end >= c.end && p.first <= c.first && c.past <= p.past {
		return l[i]
	}
	return -1
}

// link gives every backend and engine span its parent: the innermost
// recorded span on the same volume that covers its blocks and contains
// it in time. It returns how many spans found no parent.
func link(spans []span) (orphans int) {
	requests, backends := blockIndex{}, blockIndex{}
	for i := range spans {
		switch s := &spans[i]; {
		case s.vol < 0:
		case s.kind == kindRequest:
			requests.add(spans, int32(i))
		case s.kind.isBackend():
			backends.add(spans, int32(i))
		}
	}
	requests.sort(spans)
	backends.sort(spans)
	for i := range spans {
		s := &spans[i]
		if s.kind == kindRequest || s.vol < 0 {
			continue
		}
		if s.kind.isEngine() {
			s.parent = backends.find(spans, s)
		}
		if s.parent < 0 {
			s.parent = requests.find(spans, s)
		}
		if s.parent < 0 {
			orphans++
		}
	}
	return orphans
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover. Children are clipped to the parent and
// overlapping children are counted once, so for a tree whose children
// lie inside their parents and do not overlap each other, the self times
// of a tree sum exactly to its root's duration.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		self[i] = p.end - p.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, upto := int64(0), p.start
		for _, k := range kids {
			s, e := spans[k].start, spans[k].end
			if s < upto {
				s = upto
			}
			if e > p.end {
				e = p.end
			}
			if e > s {
				covered += e - s
				upto = e
			}
		}
		self[i] -= covered
	}
	return self
}

// writeNDJSON writes one JSON object per span: name, start and end in ns
// since the run's epoch, the span's own index, its parent's index (-1
// for a root) and the request id of the tree it belongs to.
func writeNDJSON(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	type line struct {
		Name   string `json:"name"`
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Req    uint64 `json:"req"`
		Vol    int16  `json:"vol"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		First  int32  `json:"first_block"`
		Past   int32  `json:"past_block"`
	}
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		root := s
		for root.parent >= 0 {
			root = &spans[root.parent]
		}
		req := uint64(0)
		if root.kind == kindRequest {
			req = root.req
		}
		if err := enc.Encode(line{kindNames[s.kind], i, s.parent, req, s.vol, s.start, s.end, s.first, s.past}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// policyCounters accumulates the placement policy's calls. They are
// counts and totals, not spans: PlaceUser runs once per block, and a
// span apiece would cost more than the call it times.
type policyCounters struct {
	placeUserCalls, placeUserNS atomic.Int64
	placeGCCalls, placeGCNS     atomic.Int64
	timeoutCalls, timeoutNS     atomic.Int64
}
