package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// NBD protocol constants, restated here on purpose (as nbdtest does):
// sharing the server's definitions would let one side's typo cancel the
// other's.
const (
	nbdMagic         = 0x4e42444d41474943
	nbdOptMagic      = 0x49484156454f5054
	nbdRepMagic      = 0x3e889045565a9
	nbdRequestMagic  = 0x25609513
	nbdReplyMagic    = 0x67446698
	nbdOptGo         = 7
	nbdRepAck        = 1
	nbdRepInfo       = 3
	nbdRepErrBit     = uint32(1) << 31
	nbdInfoExport    = 0
	nbdCmdRead       = 0
	nbdCmdWrite      = 1
	nbdCmdDisc       = 2
	nbdCmdFlush      = 3
	nbdReqHeaderLen  = 28
	nbdReplyLen      = 16
	nbdGreetingLen   = 18
	nbdOptReplyLen   = 20
	nbdClientFlags   = 1<<0 | 1<<1 // fixed newstyle, no zeroes
	nbdMaxOptPayload = 1 << 16
)

// nbdClient is a pipelined NBD connection: calls from any goroutine are
// multiplexed by request handle and a reader goroutine routes the
// (possibly out-of-order) simple replies back. nbdtest.Client is
// one-op-at-a-time, which cannot hold a queue depth of 8 on one
// connection the way a kernel initiator does.
type nbdClient struct {
	conn net.Conn
	size uint64

	wmu    sync.Mutex // serializes request frames on the socket
	handle uint64
	wbuf   []byte

	pmu     sync.Mutex
	pending map[uint64]*nbdCall
	readErr error

	done chan struct{}
}

// nbdCall is one in-flight request; the reader fills data/err and
// closes done.
type nbdCall struct {
	readLen uint32
	data    []byte
	err     error
	done    chan struct{}
}

// dialNBD connects to addr and negotiates export over NBD_OPT_GO. wrap,
// when set, decorates the raw connection (byte counting).
func dialNBD(addr, export string, wrap func(net.Conn) net.Conn) (*nbdClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	c, err := attachNBD(conn, export)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func attachNBD(conn net.Conn, export string) (*nbdClient, error) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var greet [nbdGreetingLen]byte
	if _, err := io.ReadFull(br, greet[:]); err != nil {
		return nil, fmt.Errorf("nbd greeting: %w", err)
	}
	if binary.BigEndian.Uint64(greet[0:8]) != nbdMagic || binary.BigEndian.Uint64(greet[8:16]) != nbdOptMagic {
		return nil, errors.New("nbd: not a newstyle server")
	}
	// Client flags, then one NBD_OPT_GO naming the export and asking
	// for no extra info items.
	msg := binary.BigEndian.AppendUint32(nil, nbdClientFlags)
	msg = binary.BigEndian.AppendUint64(msg, nbdOptMagic)
	msg = binary.BigEndian.AppendUint32(msg, nbdOptGo)
	msg = binary.BigEndian.AppendUint32(msg, uint32(4+len(export)+2))
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(export)))
	msg = append(msg, export...)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	if _, err := conn.Write(msg); err != nil {
		return nil, err
	}
	c := &nbdClient{conn: conn, pending: make(map[uint64]*nbdCall), done: make(chan struct{})}
	for {
		var hdr [nbdOptReplyLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("nbd option reply: %w", err)
		}
		if binary.BigEndian.Uint64(hdr[0:8]) != nbdRepMagic {
			return nil, errors.New("nbd: bad option reply magic")
		}
		typ := binary.BigEndian.Uint32(hdr[12:16])
		n := binary.BigEndian.Uint32(hdr[16:20])
		if n > nbdMaxOptPayload {
			return nil, fmt.Errorf("nbd: oversized option reply (%d bytes)", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, err
		}
		switch {
		case typ == nbdRepAck:
			if c.size == 0 {
				return nil, errors.New("nbd: GO acked without NBD_INFO_EXPORT")
			}
			go c.readLoop(br)
			return c, nil
		case typ == nbdRepInfo:
			if len(data) == 12 && binary.BigEndian.Uint16(data[0:2]) == nbdInfoExport {
				c.size = binary.BigEndian.Uint64(data[2:10])
			}
		case typ&nbdRepErrBit != 0:
			return nil, fmt.Errorf("nbd: GO refused (%#x): %s", typ, data)
		default:
			return nil, fmt.Errorf("nbd: unexpected GO reply type %#x", typ)
		}
	}
}

// readLoop routes simple replies to their callers; on a read error it
// fails every outstanding call.
func (c *nbdClient) readLoop(br *bufio.Reader) {
	defer close(c.done)
	fail := func(err error) {
		c.pmu.Lock()
		c.readErr = err
		for h, call := range c.pending {
			delete(c.pending, h)
			call.err = err
			close(call.done)
		}
		c.pmu.Unlock()
	}
	for {
		var rep [nbdReplyLen]byte
		if _, err := io.ReadFull(br, rep[:]); err != nil {
			fail(fmt.Errorf("nbd: connection lost: %w", err))
			return
		}
		if binary.BigEndian.Uint32(rep[0:4]) != nbdReplyMagic {
			fail(errors.New("nbd: bad simple reply magic"))
			return
		}
		handle := binary.BigEndian.Uint64(rep[8:16])
		c.pmu.Lock()
		call := c.pending[handle]
		delete(c.pending, handle)
		c.pmu.Unlock()
		if call == nil {
			fail(fmt.Errorf("nbd: reply for unknown handle %d", handle))
			return
		}
		if errno := binary.BigEndian.Uint32(rep[4:8]); errno != 0 {
			call.err = fmt.Errorf("nbd: errno %d", errno)
		} else if call.readLen > 0 {
			call.data = make([]byte, call.readLen)
			if _, err := io.ReadFull(br, call.data); err != nil {
				call.err = err
				close(call.done)
				fail(fmt.Errorf("nbd: connection lost: %w", err))
				return
			}
		}
		close(call.done)
	}
}

// roundtrip sends one request and waits for its reply.
func (c *nbdClient) roundtrip(cmd uint16, off uint64, length uint32, payload []byte) ([]byte, error) {
	call := &nbdCall{done: make(chan struct{})}
	if cmd == nbdCmdRead {
		call.readLen = length
	}
	c.wmu.Lock()
	c.handle++
	h := c.handle
	c.pmu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.pmu.Unlock()
		c.wmu.Unlock()
		return nil, err
	}
	c.pending[h] = call
	c.pmu.Unlock()
	b := binary.BigEndian.AppendUint32(c.wbuf[:0], nbdRequestMagic)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint16(b, cmd)
	b = binary.BigEndian.AppendUint64(b, h)
	b = binary.BigEndian.AppendUint64(b, off)
	b = binary.BigEndian.AppendUint32(b, length)
	b = append(b, payload...)
	c.wbuf = b
	_, err := c.conn.Write(b)
	c.wmu.Unlock()
	if err != nil {
		// The reader fails every pending call once the socket dies.
		c.conn.Close()
	}
	<-call.done
	return call.data, call.err
}

func (c *nbdClient) Read(off uint64, length uint32) ([]byte, error) {
	return c.roundtrip(nbdCmdRead, off, length, nil)
}

func (c *nbdClient) Write(off uint64, data []byte) error {
	_, err := c.roundtrip(nbdCmdWrite, off, uint32(len(data)), data)
	return err
}

func (c *nbdClient) Flush() error {
	_, err := c.roundtrip(nbdCmdFlush, 0, 0, nil)
	return err
}

// Close sends DISC (best effort), closes the socket and waits for the
// reader to exit.
func (c *nbdClient) Close() error {
	c.wmu.Lock()
	b := binary.BigEndian.AppendUint32(nil, nbdRequestMagic)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint16(b, nbdCmdDisc)
	b = binary.BigEndian.AppendUint64(b, c.handle+1)
	b = binary.BigEndian.AppendUint64(b, 0)
	b = binary.BigEndian.AppendUint32(b, 0)
	_, _ = c.conn.Write(b) // the server may already be gone
	c.wmu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
