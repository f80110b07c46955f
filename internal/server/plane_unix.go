//go:build unix

package server

import (
	"os"
	"syscall"
)

// mapPlane returns a zeroed n-byte data plane outside the Go heap, in
// anonymous memory of its own. As live heap the plane would double the
// GC's heap goal, letting per-request garbage grow as large as the
// volume before a cycle ran. One PROT_NONE guard page on each side
// keeps the kernel from merging the plane into a neighbouring mapping,
// so it shows in /proc/self/maps as one region of its own size.
func mapPlane(n int) (*plane, error) {
	page := os.Getpagesize()
	size := (n + page - 1) &^ (page - 1)
	mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	if err := syscall.Mprotect(mem[page:page+size], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		syscall.Munmap(mem)
		return nil, err
	}
	return &plane{mem: mem[page : page+n : page+n], unmap: func() error { return syscall.Munmap(mem) }}, nil
}
