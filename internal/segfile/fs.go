// Package segfile is the file-backed segment store beneath lss.Store:
// it implements lss.DurableLog over a single directory, persisting
// every flushed chunk, segment seal, and reclaim as it happens, plus an
// atomically-renamed checkpoint of the store clocks. The on-disk format
// is torn-write-safe (per-segment headers and per-record CRC32-C,
// reusing the wire protocol's Castagnoli discipline) and recovery rolls
// the directory forward into a live lss.Store through the existing
// checkpoint path, so the in-memory store, the crash oracle, and the
// durable backend all share one durability model.
package segfile

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// FS is the syscall seam the store writes through. A production store
// uses the operating-system directory (DirFS); tests substitute MemFS,
// and the crash-injection harness wraps either in a CrashFS that kills
// the process at an exact syscall boundary. Every method maps to one
// syscall-granularity operation, which is the unit the crash sweep
// enumerates.
//
// The namespace is a single flat directory. Durability follows POSIX
// rules: File.Sync persists a file's contents, SyncDir persists the
// namespace (creations, removals, renames). Neither implies the other.
type FS interface {
	// OpenFile opens (or creates) a file in the directory.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Remove unlinks a file. Durable only after SyncDir.
	Remove(name string) error
	// Rename atomically replaces newname with oldname. Durable only
	// after SyncDir.
	Rename(oldname, newname string) error
	// ReadDir lists the file names in the directory.
	ReadDir() ([]string, error)
	// SyncDir persists the directory namespace.
	SyncDir() error
}

// File is one open file of an FS.
type File interface {
	io.WriterAt
	io.ReaderAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// DirFS is the real-filesystem FS rooted at a directory.
type DirFS struct {
	dir string
}

// NewDirFS creates (if needed) and opens dir as an FS.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirFS{dir: dir}, nil
}

// Dir returns the rooted directory path.
func (d *DirFS) Dir() string { return d.dir }

func (d *DirFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(filepath.Join(d.dir, name), flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (d *DirFS) Remove(name string) error { return os.Remove(filepath.Join(d.dir, name)) }

func (d *DirFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(d.dir, oldname), filepath.Join(d.dir, newname))
}

func (d *DirFS) ReadDir() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *DirFS) SyncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

type osFile struct{ f *os.File }

func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

var _ FS = (*DirFS)(nil)

// readAll reads the full contents of name through fsys, returning
// (nil, nil) if the file does not exist.
func readAll(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("segfile: read %s: %w", name, err)
	}
	return buf, nil
}
