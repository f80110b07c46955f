// Package bufpool recycles the payload-sized buffers of the block
// service's request path: wire request and reply frames, NBD write
// payloads, widened reads, read-modify-write merges and reply frames.
// Without it every request leaves one or two payload-sized buffers of
// garbage behind, and the GC heap goal lets that garbage grow as large
// as the live heap before a cycle reclaims it.
//
// Buffers come in size classes of 256<<k bytes plus headerRoom, so a
// frame whose payload is a power of two (a 4 KiB block, a 64 KiB
// chunk) fits its class with its header. A buffer has one owner at a
// time; whoever holds it last hands it back with Put, and nobody may
// touch it after that. Requests beyond the largest class are served
// by plain allocation, and Put drops them.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minClass is the payload room of the smallest class.
	minClass = 256
	// classes spans 256 B .. 8 MiB of payload: a whole wire frame
	// (MaxFrame) and NBD's default request cap both fit.
	classes = 16
	// headerRoom is the slack every class carries past its power of two
	// for a frame header and length prefix.
	headerRoom = 64
)

// PoisonByte is what Put fills a released buffer with while poisoning
// is on, so a use after release reads garbage a test can spot.
const PoisonByte = 0xDB

var (
	// pools holds each class's free buffers as pointers to their first
	// byte: a pointer converts to an interface without allocating,
	// where a slice header would cost an allocation per Put.
	pools  [classes]sync.Pool
	poison atomic.Bool
)

// classCap is class k's buffer capacity.
func classCap(k int) int { return minClass<<k + headerRoom }

// classOf returns the smallest class holding n bytes, or classes when
// none does.
func classOf(n int) int {
	m := n - headerRoom
	if m <= minClass {
		return 0
	}
	return bits.Len(uint(m-1)) - bits.Len(minClass-1)
}

// Get returns a buffer of length n. Its contents are whatever the last
// owner left: the caller overwrites every byte it hands on.
func Get(n int) []byte {
	k := classOf(n)
	if k >= classes {
		return make([]byte, n)
	}
	c := classCap(k)
	if p, ok := pools[k].Get().(*byte); ok {
		return unsafe.Slice(p, c)[:n]
	}
	return make([]byte, n, c)
}

// Put returns b to its class. A buffer whose capacity is not exactly a
// class size did not come from Get and is left to the garbage
// collector, so Put is safe on any slice its caller owns, nil included.
func Put(b []byte) {
	c := cap(b)
	k := classOf(c)
	if k >= classes || classCap(k) != c {
		return
	}
	b = b[:c]
	if poison.Load() {
		for i := range b {
			b[i] = PoisonByte
		}
	}
	pools[k].Put(unsafe.SliceData(b))
}

// SetPoison turns use-after-release poisoning on or off and returns the
// previous setting. It is a test hook: with it on, Put overwrites every
// buffer it takes back with PoisonByte, so a frame released before its
// last reader ran corrupts data a test reads back.
func SetPoison(on bool) bool { return poison.Swap(on) }
