//go:build !linux

package segfile

import "os"

// datasync is DirFS's File.Sync: fsync where fdatasync is not offered.
func datasync(f *os.File) error { return f.Sync() }
