//go:build linux

package segfile

import (
	"os"
	"syscall"
)

// datasync is DirFS's File.Sync: fdatasync. The log file's size is set
// once, at creation, so no later sync has metadata a read would need,
// and fdatasync skips the timestamp update an fsync would journal. The
// creating sync carries the new size: fdatasync flushes a size change.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	cerr := rc.Control(func(fd uintptr) {
		for {
			if err = syscall.Fdatasync(int(fd)); err != syscall.EINTR {
				return
			}
		}
	})
	if cerr != nil {
		return cerr
	}
	return err
}
