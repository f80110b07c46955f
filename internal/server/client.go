package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"adapt/internal/server/wire"
)

// Typed errors a Client maps non-OK response statuses onto. Callers
// branch with errors.Is; ErrBackpressure in particular is the retry
// signal a well-behaved tenant backs off on.
var (
	ErrBackpressure = errors.New("server: backpressure, retry later")
	ErrShuttingDown = errors.New("server: shutting down")
	ErrBadVolume    = errors.New("server: no such volume")
	ErrOutOfRange   = errors.New("server: lba range outside volume")
	ErrBadRequest   = errors.New("server: bad request")
	ErrRemote       = errors.New("server: internal remote error")
	ErrClientClosed = errors.New("server: client closed")
)

// statusErr wraps one of the sentinels with the server's detail text.
type statusErr struct {
	sentinel error
	detail   string
}

func (e *statusErr) Error() string {
	if e.detail == "" {
		return e.sentinel.Error()
	}
	return fmt.Sprintf("%v: %s", e.sentinel, e.detail)
}

func (e *statusErr) Unwrap() error { return e.sentinel }

// sentinels pairs each refusal status with its typed error. The server
// reads it one way (statusOf: what a VolumeBackend op returned becomes
// the response status) and the client the other (statusError), so the
// two mappings cannot drift; nbd.mapErr is the same table for errnos.
var sentinels = [...]struct {
	status wire.Status
	err    error
}{
	{wire.StatusBackpressure, ErrBackpressure},
	{wire.StatusShuttingDown, ErrShuttingDown},
	{wire.StatusBadVolume, ErrBadVolume},
	{wire.StatusOutOfRange, ErrOutOfRange},
	{wire.StatusBadRequest, ErrBadRequest},
}

// statusOf maps an op's error onto the wire status space; anything but
// a sentinel is StatusInternal.
func statusOf(err error) wire.Status {
	if err == nil {
		return wire.StatusOK
	}
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.status
		}
	}
	return wire.StatusInternal
}

// statusError maps a response's status back onto the sentinels (nil
// for OK, ErrRemote for anything else), keeping the detail text.
func statusError(resp *wire.Response) error {
	if resp.Status == wire.StatusOK {
		return nil
	}
	sentinel := ErrRemote
	for _, s := range sentinels {
		if s.status == resp.Status {
			sentinel = s.err
		}
	}
	return &statusErr{sentinel: sentinel, detail: string(resp.Payload)}
}

// Client is one tenant's connection to the block service. It pipelines
// requests: calls from any goroutine are multiplexed over the single
// connection by request ID, and a reader goroutine routes (possibly
// out-of-order) completions back to the callers. All methods are safe
// for concurrent use.
type Client struct {
	conn   net.Conn
	volume uint32

	// blockBytes is the client's view of the server block size for
	// payload-length validation (0 means the 4096 default; set from
	// STAT geometry via SetBlockBytes otherwise).
	blockBytes atomic.Int64

	// traceEvery, when n > 0, sets wire.FlagTrace on every nth request
	// so the server captures its span as an exemplar unconditionally.
	traceEvery atomic.Int64

	nextID atomic.Uint64

	// wch feeds encoded request frames to the writer goroutine, which
	// coalesces frames from concurrent callers into single socket
	// writes (the client-side mirror of the server's response writer).
	// Frame buffers are pooled: the writer returns each to framePool
	// after copying it out.
	wch chan *[]byte

	pmu     sync.Mutex
	pending map[uint64]chan *wire.Response
	readErr error
	closed  bool

	done chan struct{}
}

// Dial connects a client for one volume of the service at addr.
func Dial(addr string, volume uint32) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, volume), nil
}

// NewClient wraps an established connection (used by tests over
// net.Pipe or an already-dialed conn). The client owns conn.
func NewClient(conn net.Conn, volume uint32) *Client {
	c := &Client{
		conn:    conn,
		volume:  volume,
		wch:     make(chan *[]byte, 64),
		pending: make(map[uint64]chan *wire.Response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	go c.writeLoop()
	return c
}

// framePool recycles request frame buffers between roundtrip (encode)
// and writeLoop (copy to the socket buffer).
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// writeLoop drains queued request frames and writes them with as few
// socket writes as possible. On a write error it closes the connection,
// which fails every outstanding call through readLoop's teardown.
func (c *Client) writeLoop() {
	buf := make([]byte, 0, 64<<10)
	broken := false
	for {
		select {
		case frame := <-c.wch:
			buf = append(buf[:0], *frame...)
			framePool.Put(frame)
		coalesce:
			for len(buf) < 48<<10 {
				select {
				case f := <-c.wch:
					buf = append(buf, *f...)
					framePool.Put(f)
				default:
					break coalesce
				}
			}
			if !broken {
				if _, err := c.conn.Write(buf); err != nil {
					broken = true
					c.conn.Close()
				}
			}
		case <-c.done:
			return
		}
	}
}

// readLoop routes response frames to waiting callers by request ID.
func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		resp, err := wire.ReadResponse(br)
		if err != nil {
			c.pmu.Lock()
			if c.readErr == nil {
				if c.closed {
					c.readErr = ErrClientClosed
				} else {
					c.readErr = fmt.Errorf("server: connection lost: %w", err)
				}
			}
			for id, ch := range c.pending {
				delete(c.pending, id)
				close(ch)
			}
			c.pmu.Unlock()
			return
		}
		c.pmu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.pmu.Unlock()
		if ch != nil {
			ch <- &resp
		}
	}
}

// roundtrip sends one request and waits for its completion.
func (c *Client) roundtrip(req *wire.Request) (*wire.Response, error) {
	req.ID = c.nextID.Add(1)
	req.Volume = c.volume
	if n := c.traceEvery.Load(); n > 0 && req.ID%uint64(n) == 0 {
		req.Flags |= wire.FlagTrace
	}
	ch := make(chan *wire.Response, 1)

	c.pmu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.pmu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.pending[req.ID] = ch
	c.pmu.Unlock()

	frame := framePool.Get().(*[]byte)
	*frame = wire.AppendRequest((*frame)[:0], req)
	select {
	case c.wch <- frame:
	case <-c.done:
		c.pmu.Lock()
		err := c.readErr
		delete(c.pending, req.ID)
		c.pmu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}

	resp, ok := <-ch
	if !ok {
		c.pmu.Lock()
		err := c.readErr
		c.pmu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	return resp, nil
}

// Write submits blocks of payload at the volume-relative lba, eligible
// for server-side batching.
func (c *Client) Write(lba int64, payload []byte) error {
	return c.write(lba, payload, 0)
}

// WriteSync writes bypassing group commit (FlagNoBatch): it commits
// individually, trading aggregation for the lowest commit latency.
func (c *Client) WriteSync(lba int64, payload []byte) error {
	return c.write(lba, payload, wire.FlagNoBatch)
}

func (c *Client) write(lba int64, payload []byte, flags uint16) error {
	blockBytes, err := c.blockCount(len(payload))
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(&wire.Request{
		Op:      wire.OpWrite,
		Flags:   flags,
		LBA:     uint64(lba),
		Count:   blockBytes,
		Payload: payload,
	})
	if err != nil {
		return err
	}
	return statusError(resp)
}

// blockCount derives the wire block count for a payload. The protocol
// carries the count explicitly and the server re-validates payload
// length against its own geometry, so a stale client-side block size
// fails fast with StatusBadRequest rather than corrupting anything.
func (c *Client) blockCount(payloadLen int) (uint32, error) {
	bb := int(c.blockBytes.Load())
	if bb == 0 {
		bb = 4096
	}
	if payloadLen == 0 || payloadLen%bb != 0 {
		return 0, fmt.Errorf("%w: payload %d bytes not a multiple of %d-byte blocks",
			ErrBadRequest, payloadLen, bb)
	}
	return uint32(payloadLen / bb), nil
}

// Read returns blocks blocks starting at the volume-relative lba.
func (c *Client) Read(lba int64, blocks int) ([]byte, error) {
	resp, err := c.roundtrip(&wire.Request{
		Op:    wire.OpRead,
		LBA:   uint64(lba),
		Count: uint32(blocks),
	})
	if err != nil {
		return nil, err
	}
	if err := statusError(resp); err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Trim discards blocks starting at the volume-relative lba.
func (c *Client) Trim(lba int64, blocks int) error {
	resp, err := c.roundtrip(&wire.Request{
		Op:    wire.OpTrim,
		LBA:   uint64(lba),
		Count: uint32(blocks),
	})
	if err != nil {
		return err
	}
	return statusError(resp)
}

// Flush forces the volume's pending group commit to the store and
// returns once it is applied.
func (c *Client) Flush() error {
	resp, err := c.roundtrip(&wire.Request{Op: wire.OpFlush})
	if err != nil {
		return err
	}
	return statusError(resp)
}

// Stats fetches the service's STAT table (geometry, engine accounting,
// per-tenant counters).
func (c *Client) Stats() (map[string]int64, error) {
	resp, err := c.roundtrip(&wire.Request{Op: wire.OpStat})
	if err != nil {
		return nil, err
	}
	if err := statusError(resp); err != nil {
		return nil, err
	}
	stats, err := wire.DecodeStats(resp.Payload)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(stats))
	for _, st := range stats {
		out[st.Name] = st.Value
	}
	return out, nil
}

// SetBlockBytes overrides the client's assumed block size (from STAT
// geometry) for payload-length validation.
func (c *Client) SetBlockBytes(n int) { c.blockBytes.Store(int64(n)) }

// SetTraceEvery opts every nth request into server-side exemplar
// capture (wire.FlagTrace); n <= 0 disables.
func (c *Client) SetTraceEvery(n int) { c.traceEvery.Store(int64(n)) }

// Close tears down the connection; outstanding calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return nil
	}
	c.closed = true
	c.pmu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
