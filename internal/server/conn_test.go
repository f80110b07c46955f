package server

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/server/wire"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// spanBackend is the slice of VolumeBackend the reply half uses: a
// clock, the span finisher (counted) and the exemplar ring.
type spanBackend struct {
	VolumeBackend
	finished atomic.Int64
}

func (b *spanBackend) Now() sim.Time                                   { return 1 }
func (b *spanBackend) FinishSpan(*telemetry.Span, *telemetry.SpanRing) { b.finished.Add(1) }
func (b *spanBackend) OpenSpanRing() *telemetry.SpanRing               { return nil }
func (b *spanBackend) CloseSpanRing(*telemetry.SpanRing)               {}

// sendTraced begins and sends one traced reply on q.
func sendTraced(q *Replies) *Reply {
	rp := q.Begin(new(telemetry.Span))
	rp.Send(wire.StatusOK, []byte("frame"))
	return rp
}

// shutdown drains l inside five seconds — far under the write deadline
// — and collects Serve's return.
func shutdown(t *testing.T, l *Lifecycle, served <-chan error, what string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown %s: %v", what, err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve %s: %v", what, err)
	}
}

// deadConn is a peer that is gone: every Write fails at once, and Read
// parks until a read deadline in the past expires it (the drain).
type deadConn struct {
	net.Conn
	writes, closes atomic.Int64
	expired        chan struct{}
	expireOnce     sync.Once
}

func newDeadConn() *deadConn { return &deadConn{expired: make(chan struct{})} }

func (c *deadConn) Read([]byte) (int, error)         { <-c.expired; return 0, io.EOF }
func (c *deadConn) Write([]byte) (int, error)        { c.writes.Add(1); return 0, io.ErrClosedPipe }
func (c *deadConn) Close() error                     { c.closes.Add(1); return nil }
func (c *deadConn) SetWriteDeadline(time.Time) error { return nil }
func (c *deadConn) SetReadDeadline(d time.Time) error {
	if !d.IsZero() && time.Until(d) <= 0 {
		c.expireOnce.Do(func() { close(c.expired) })
	}
	return nil
}

// oneConnListener hands out conn once — immediately, or with late set
// only after Close, i.e. after Shutdown has set draining — and then
// blocks until closed.
type oneConnListener struct {
	conn      net.Conn
	late      bool
	handed    bool
	accepting chan struct{} // closed at the first Accept
	closed    chan struct{}
	acceptOne sync.Once
	closeOnce sync.Once
}

func newOneConnListener(conn net.Conn, late bool) *oneConnListener {
	return &oneConnListener{conn: conn, late: late, accepting: make(chan struct{}), closed: make(chan struct{})}
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	l.acceptOne.Do(func() { close(l.accepting) })
	if l.late || l.handed {
		<-l.closed
	}
	if l.handed {
		return nil, net.ErrClosed
	}
	l.handed = true
	return l.conn, nil
}

func (l *oneConnListener) Close() error   { l.closeOnce.Do(func() { close(l.closed) }); return nil }
func (l *oneConnListener) Addr() net.Addr { return nil }

// TestLifecycleRefusesConnAcceptedDuringShutdown pins the accept loop
// against Shutdown: a connection Accept hands back after draining is
// set is closed without being counted or served, so Shutdown's wait
// cannot race a late connWG.Add, and both sides return.
func TestLifecycleRefusesConnAcceptedDuringShutdown(t *testing.T) {
	conn := newDeadConn()
	ln := newOneConnListener(conn, true)
	l := NewLifecycle(nil)
	var handled atomic.Int64
	served := make(chan error, 1)
	go func() { served <- l.Serve(ln, func(net.Conn) { handled.Add(1) }) }()
	<-ln.accepting

	shutdown(t, l, served, "with a connection in Accept")
	if handled.Load() != 0 {
		t.Fatal("handler ran on a connection accepted after draining was set")
	}
	if conn.closes.Load() != 1 {
		t.Fatalf("late connection closed %d times, want 1", conn.closes.Load())
	}
}

// TestRepliesSurviveDeadPeer pins the writer's keep-draining rule: once
// the socket fails, every queued and later reply is still consumed (the
// queue is far shorter than the burst, so a stalled writer would park
// the senders), every span still finishes, and the drain does not wait
// out the write deadline.
func TestRepliesSurviveDeadPeer(t *testing.T) {
	const replies = 64
	conn := newDeadConn()
	ln := newOneConnListener(conn, false)
	l := NewLifecycle(nil)
	b := new(spanBackend)
	sent := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- l.Serve(ln, func(c net.Conn) {
			q := NewReplies(c, b, 4)
			defer q.Close()
			for i := 0; i < replies; i++ {
				sendTraced(q)
			}
			close(sent)
			c.Read(nil) // parked until the drain expires the read
		})
	}()
	<-sent

	shutdown(t, l, served, "over a dead peer")
	if got := b.finished.Load(); got != replies {
		t.Fatalf("%d of %d spans finished on a dead connection", got, replies)
	}
	if got := conn.writes.Load(); got != 1 {
		t.Fatalf("%d socket writes after the first failed, want 1 in all", got)
	}
}

// TestReplyTwicePanics pins the exactly-once guard.
func TestReplyTwicePanics(t *testing.T) {
	q := NewReplies(newDeadConn(), new(spanBackend), 4)
	defer q.Close()
	rp := sendTraced(q)
	defer func() {
		if recover() == nil {
			t.Fatal("second Send on one Reply did not panic")
		}
	}()
	rp.Send(wire.StatusOK, nil)
}
