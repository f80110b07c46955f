package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/server/bufpool"
	"adapt/internal/server/wire"
	"adapt/internal/telemetry"
)

// The connection runtime under both frontends. A frontend is a codec:
// read a frame, decode, fill the span, dispatch onto the VolumeBackend
// ops, encode the reply. Accepting, tracking and draining connections
// (Lifecycle) and getting replies onto the socket in whatever order
// they complete (Replies) happen here, once, for the bespoke wire
// protocol (this package) and for NBD (internal/nbd).

const (
	// idleTimeout reaps a connection silent for this long while its
	// frontend has the idle deadline armed.
	idleTimeout = 5 * time.Minute
	// writeTimeout bounds each socket write of coalesced replies.
	writeTimeout = 30 * time.Second
)

// Lifecycle owns one frontend's listener and connections from accept to
// drain. The Server's is also the volume manager's drain state: Acquire
// and dispatch read its draining flag.
type Lifecycle struct {
	gauge *telemetry.Gauge // open connections; nil is a no-op

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	// drainCh closes when Shutdown starts.
	drainCh chan struct{}
	connWG  sync.WaitGroup
}

// NewLifecycle builds a Lifecycle reporting open connections on gauge.
func NewLifecycle(gauge *telemetry.Gauge) *Lifecycle {
	return &Lifecycle{
		gauge:   gauge,
		conns:   make(map[net.Conn]struct{}),
		drainCh: make(chan struct{}),
	}
}

// Serve accepts connections on ln and runs handle on each in its own
// goroutine, closing the connection when handle returns. It returns nil
// once Shutdown has closed ln, the listener's error otherwise.
func (l *Lifecycle) Serve(ln net.Listener, handle func(net.Conn)) error {
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if l.draining.Load() {
				return nil
			}
			return err
		}
		l.mu.Lock()
		if l.draining.Load() {
			// Accepted as Shutdown closed the listener. Shutdown set
			// draining before it took mu, so counting this connection
			// could race its connWG.Wait; it has sent nothing we read.
			l.mu.Unlock()
			conn.Close()
			continue
		}
		l.conns[conn] = struct{}{}
		l.connWG.Add(1)
		l.mu.Unlock()
		l.gauge.Add(1)
		go func() {
			handle(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
			l.gauge.Add(-1)
			conn.Close()
			l.connWG.Done()
		}()
	}
}

// ArmIdle gives conn's next read the idle timeout; ClearIdle lets reads
// park until the drain. Arm only when the read will hit the socket:
// requests already buffered don't reset idleness and skip the per-op
// deadline bookkeeping.
func (l *Lifecycle) ArmIdle(conn net.Conn)   { l.setReadDeadline(conn, time.Now().Add(idleTimeout)) }
func (l *Lifecycle) ClearIdle(conn net.Conn) { l.setReadDeadline(conn, time.Time{}) }

func (l *Lifecycle) setReadDeadline(conn net.Conn, t time.Time) {
	conn.SetReadDeadline(t)
	// Shutdown flips draining and then expires every read deadline; if
	// that landed between the reader's last read and the set above, the
	// set just undid it and the next read would park past the drain.
	// Checking after setting closes the window whichever side ran last.
	if l.draining.Load() {
		expireRead(conn)
	}
}

// expireRead unblocks a reader parked on conn; in-flight work still
// completes and is acked before the connection closes.
func expireRead(conn net.Conn) { conn.SetReadDeadline(time.Now()) }

// drain sets draining, closes the listener and expires every read
// deadline; false when a drain had already begun.
func (l *Lifecycle) drain() bool {
	if !l.draining.CompareAndSwap(false, true) {
		return false
	}
	close(l.drainCh)
	l.mu.Lock()
	if l.ln != nil {
		l.ln.Close()
	}
	for conn := range l.conns {
		expireRead(conn)
	}
	l.mu.Unlock()
	return true
}

// wait blocks until every connection handler has returned and then
// tail (if any) has, or until ctx ends.
func (l *Lifecycle) wait(ctx context.Context, tail func()) error {
	done := make(chan struct{})
	go func() {
		l.connWG.Wait()
		if tail != nil {
			tail()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown drains the frontend: the listener closes, parked reads
// return, and the handlers — each waiting out its in-flight replies —
// finish, or ctx ends. A second call returns nil at once.
func (l *Lifecycle) Shutdown(ctx context.Context) error {
	if !l.drain() {
		return nil
	}
	return l.wait(ctx, nil)
}

// Replies is the reply half of one connection: a bounded queue of
// encoded frames, the count of requests still owed one, and the writer
// goroutine coalescing them onto the socket. Replies arrive in any
// order from any goroutine (batched writes ack from a commit leader).
type Replies struct {
	b       VolumeBackend
	ring    *telemetry.SpanRing
	ch      chan *Reply
	pending sync.WaitGroup
	done    chan struct{}
}

// NewReplies starts conn's reply writer. The queue holds depth frames:
// room for what the connection can have in flight, so a responder parks
// on it only when the socket is the bottleneck. Spans finish through b
// into an exemplar ring Close retires.
func NewReplies(conn net.Conn, b VolumeBackend, depth int) *Replies {
	q := &Replies{b: b, ring: b.OpenSpanRing(), ch: make(chan *Reply, depth), done: make(chan struct{})}
	go q.write(conn)
	return q
}

// Reply is one request's claim on its connection: exactly one Send. It
// carries the encoded frame to the writer with the request's span, so
// the span can finish after the socket write.
type Reply struct {
	q     *Replies
	sp    *telemetry.Span
	frame []byte
	sent  bool
}

// Begin registers a request the connection now owes a reply (sp: its
// span, nil when tracing is off).
func (q *Replies) Begin(sp *telemetry.Span) *Reply {
	q.pending.Add(1)
	return &Reply{q: q, sp: sp}
}

// Send queues the request's encoded reply and records status on its
// span. The frame is handed over: the writer returns it to bufpool once
// it is copied into the socket buffer. A second Send is a frontend bug
// and panics.
func (r *Reply) Send(status wire.Status, frame []byte) {
	if r.sent {
		panic("server: double reply to one request")
	}
	r.sent = true
	if r.sp != nil {
		r.sp.Status = uint8(status)
	}
	r.frame = frame
	r.q.ch <- r
	r.q.pending.Done()
}

// Close waits for every begun request's reply and for the writer to
// flush them. The reader calls it once it will Begin no more.
func (q *Replies) Close() {
	q.pending.Wait()
	close(q.ch)
	<-q.done
	q.b.CloseSpanRing(q.ring)
}

// write coalesces queued frames, flushing when the queue momentarily
// empties, and releases each frame as it is copied (or, on a dead
// connection, dropped). After a write failure it keeps draining the
// queue so responders never block on a dead connection. Spans finish at
// flush time, after their bytes hit the socket, on one clock read per
// flush.
func (q *Replies) write(conn net.Conn) {
	defer close(q.done)
	buf := make([]byte, 0, 64<<10)
	var spans []*telemetry.Span
	broken := false
	flush := func() {
		if !broken && len(buf) > 0 {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(buf); err != nil {
				broken = true
			}
		}
		buf = buf[:0]
		if len(spans) > 0 {
			now := q.b.Now()
			for _, sp := range spans {
				sp.MarkAt(telemetry.StageRespond, now)
				q.b.FinishSpan(sp, q.ring)
			}
			spans = spans[:0]
		}
	}
	for r := range q.ch {
		if r.sp != nil {
			spans = append(spans, r.sp)
		}
		if !broken {
			buf = append(buf, r.frame...)
		}
		bufpool.Put(r.frame)
		r.frame = nil
		if broken || len(q.ch) == 0 || len(buf) >= 48<<10 {
			flush()
		}
	}
	flush()
}
