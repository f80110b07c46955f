// Command nbdload is a closed-loop load generator that speaks the
// standard NBD protocol against adaptserve's -nbd-addr listener (or
// any other NBD server): one NBD connection per worker (exercising
// NBD_FLAG_CAN_MULTI_CONN), byte-addressed requests with an optional
// unaligned fraction (exercising the server's read-modify-write
// path), and a throughput + p50/p99/p999 latency report.
//
// With -verify each worker owns a disjoint slice of the export,
// mirrors every acked write into a shadow buffer, and reads its whole
// slice back at the end — a byte-exact end-to-end check over the
// public protocol.
//
// Usage:
//
//	nbdload -addr 127.0.0.1:10809 -export vol0 -duration 5s
//	nbdload -workers 8 -write-frac 1 -unaligned 0.5 -verify
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"adapt/internal/cli"
	"adapt/internal/nbd/nbdtest"
	"adapt/internal/stats"
)

type workerResult struct {
	ops, writes, reads, flushes, rmw int64
	bytes                            int64
	latencies                        []float64     // microseconds
	measured                         time.Duration // start barrier to the end of the worker's op loop
	err                              error
}

func main() {
	cmd := cli.New("nbdload",
		"nbdload -addr 127.0.0.1:10809 -export vol0 -duration 5s",
		"nbdload -workers 8 -write-frac 1 -unaligned 0.5 -verify")
	fs := cmd.Flags()
	addr := fs.String("addr", "127.0.0.1:10809", "NBD server address")
	export := fs.String("export", "vol0", "export name (empty: the server's default export)")
	workers := fs.Int("workers", 4, "closed-loop workers, one NBD connection each")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	opBytes := fs.Int("op-bytes", 4096, "request payload size in bytes")
	writeFrac := fs.Float64("write-frac", 0.7, "fraction of ops that are writes")
	unaligned := fs.Float64("unaligned", 0, "fraction of ops issued at unaligned byte offsets")
	flushEvery := fs.Int("flush-every", 0, "issue an NBD_CMD_FLUSH every n ops per worker (0 disables)")
	verify := fs.Bool("verify", false, "shadow-mirror acked writes per worker and read the whole slice back at the end")
	seed := fs.Int64("seed", 1, "random seed")
	cmd.Parse(os.Args[1:])

	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	if *workers < 1 || *opBytes < 1 {
		cmd.UsageErrorf("-workers and -op-bytes must be positive")
	}
	if *writeFrac < 0 || *writeFrac > 1 {
		cmd.UsageErrorf("-write-frac must be in [0,1], got %g", *writeFrac)
	}
	if *unaligned < 0 || *unaligned > 1 {
		cmd.UsageErrorf("-unaligned must be in [0,1], got %g", *unaligned)
	}

	// Geometry handshake: one throwaway connection sizes the export.
	probe, err := nbdtest.Dial(*addr, *export)
	cmd.Check(err)
	info := probe.Info()
	probe.Close()
	if info.Size < uint64(*workers)*uint64(*opBytes)*2 {
		cmd.UsageErrorf("export %q is %d bytes: too small for %d workers × %d-byte ops",
			*export, info.Size, *workers, *opBytes)
	}
	if uint64(*opBytes) > uint64(info.MaxBlock) && info.MaxBlock != 0 {
		cmd.UsageErrorf("-op-bytes %d exceeds the export's %d-byte request cap", *opBytes, info.MaxBlock)
	}
	multiConn := info.Flags&nbdtest.TFlagCanMultiConn != 0
	if *workers > 1 && !multiConn {
		fmt.Fprintln(os.Stderr, "nbdload: warning: server does not advertise CAN_MULTI_CONN; multi-worker results may be unsafe")
	}

	fmt.Printf("loading %q (%d bytes, preferred block %d) × %d workers for %v (%.0f%% writes, %.0f%% unaligned, %dB ops, verify=%v)\n",
		*export, info.Size, info.PreferredBlock, *workers, *duration,
		100**writeFrac, 100**unaligned, *opBytes, *verify)

	// Each worker owns a disjoint byte slice of the export so -verify
	// can shadow without cross-worker races.
	sliceBytes := info.Size / uint64(*workers)
	results := make([]workerResult, *workers)
	// The measured phase starts at a barrier: the clock runs from the
	// moment the last worker has dialled and (under -verify) zero-filled
	// its slice, so set-up on a large export cannot eat the duration.
	var begin, deadline time.Time
	start := make(chan struct{})
	var setup, wg sync.WaitGroup
	setup.Add(*workers)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			c, err := nbdtest.Dial(*addr, *export)
			if err != nil {
				res.err = fmt.Errorf("worker %d dial: %w", w, err)
				setup.Done()
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			base := uint64(w) * sliceBytes
			span := sliceBytes - uint64(*opBytes)
			var shadow []byte
			if *verify {
				shadow = make([]byte, sliceBytes)
				// Start from a known image so untouched bytes verify too.
				if err := zeroFill(c, base, sliceBytes); err != nil {
					res.err = fmt.Errorf("worker %d zero: %w", w, err)
					setup.Done()
					return
				}
			}
			setup.Done()
			<-start
			payload := make([]byte, *opBytes)
			align := uint64(info.PreferredBlock)
			if align == 0 {
				align = 4096
			}
			for time.Now().Before(deadline) {
				off := base + uint64(rng.Int63n(int64(span)))
				if rng.Float64() >= *unaligned {
					off = off &^ (align - 1)
					if off < base {
						off = base
					}
				} else if off%align == 0 {
					off++ // force the ragged path
				}
				write := rng.Float64() < *writeFrac
				flush := *flushEvery > 0 && res.ops > 0 && res.ops%int64(*flushEvery) == 0
				start := time.Now()
				switch {
				case flush:
					err = c.Flush()
				case write:
					rng.Read(payload)
					err = c.Write(off, payload, 0)
				default:
					_, err = c.Read(off, uint32(*opBytes))
				}
				if err != nil {
					res.err = fmt.Errorf("worker %d: %w", w, err)
					return
				}
				us := float64(time.Since(start).Microseconds())
				res.latencies = append(res.latencies, us)
				res.ops++
				res.bytes += int64(*opBytes)
				switch {
				case flush:
					res.flushes++
				case write:
					res.writes++
					if shadow != nil {
						copy(shadow[off-base:], payload)
					}
					if off%align != 0 || uint64(*opBytes)%align != 0 {
						res.rmw++
					}
				default:
					res.reads++
				}
			}
			res.measured = time.Since(begin)
			if shadow != nil {
				if err := c.Flush(); err != nil {
					res.err = fmt.Errorf("worker %d final flush: %w", w, err)
					return
				}
				var read uint64
				for read < sliceBytes {
					n := uint32(sliceBytes - read)
					if n > 1<<20 {
						n = 1 << 20
					}
					got, err := c.Read(base+read, n)
					if err != nil {
						res.err = fmt.Errorf("worker %d verify read: %w", w, err)
						return
					}
					if !bytes.Equal(got, shadow[read:read+uint64(n)]) {
						res.err = fmt.Errorf("worker %d: VERIFY FAILED: readback diverged in [%d,%d)", w, base+read, base+read+uint64(n))
						return
					}
					read += uint64(n)
				}
			}
		}(w)
	}
	setup.Wait()
	begin = time.Now()
	deadline = begin.Add(*duration)
	close(start)
	wg.Wait()

	var total workerResult
	for w := range results {
		r := &results[w]
		cmd.Check(r.err)
		total.ops += r.ops
		total.writes += r.writes
		total.reads += r.reads
		total.flushes += r.flushes
		total.rmw += r.rmw
		total.bytes += r.bytes
		if r.measured > total.measured {
			total.measured = r.measured
		}
		total.latencies = append(total.latencies, r.latencies...)
	}
	sort.Float64s(total.latencies)
	el := total.measured.Seconds()
	fmt.Printf("aggregate: %d ops in %v — %.1f ops/s, %.1f MiB/s (%d w, %d r, %d flush, %d unaligned writes)\n",
		total.ops, total.measured.Round(time.Millisecond), float64(total.ops)/el, float64(total.bytes)/el/(1<<20),
		total.writes, total.reads, total.flushes, total.rmw)
	fmt.Printf("latency: p50 %sµs  p99 %sµs  p999 %sµs\n",
		pct(total.latencies, 50), pct(total.latencies, 99), pct(total.latencies, 99.9))
	if *verify {
		fmt.Println("verify: all worker slices read back byte-identical")
	}
}

// zeroFill writes zeroes over [base, base+size) in requests of at most
// 1 MiB.
func zeroFill(c *nbdtest.Client, base, size uint64) error {
	for done := uint64(0); done < size; {
		n := uint32(size - done)
		if n > 1<<20 {
			n = 1 << 20
		}
		if err := c.WriteZeroes(base+done, n, 0); err != nil {
			return err
		}
		done += uint64(n)
	}
	return nil
}

func pct(sorted []float64, p float64) string {
	if len(sorted) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", stats.SortedPercentile(sorted, p))
}
