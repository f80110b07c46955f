// Package segfile is the file-backed segment store beneath lss.Store:
// it implements lss.LogCommitter over a single directory, writing
// every flushed chunk as it happens and making segment seals, reclaims
// and an atomically-renamed checkpoint of the store clocks durable in a
// log commit that can run outside the store's lock (commit.go). The on-disk format
// is torn-write-safe (per-segment headers and per-record CRC32-C,
// reusing the wire protocol's Castagnoli discipline) and recovery rolls
// the directory forward into a live lss.Store through the existing
// checkpoint path, so the in-memory store, the crash oracle, and the
// durable backend all share one durability model.
package segfile

import (
	"errors"
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

// NewDirFS creates (if needed, through mkdirAll) and opens dir as an
// FS.
func NewDirFS(dir string) (*DirFS, error) {
	if err := mkdirAll(dir); err != nil {
		return nil, err
	}
	return &DirFS{dir: dir}, nil
}

// mkdirAll creates dir and any missing parents, as os.MkdirAll does, and
// then syncs the parent of every directory it created, so a power cut
// after it returns cannot drop a new directory — and every file later
// created in it — from the namespace. An existing directory costs no
// sync.
func mkdirAll(dir string) error {
	var parents []string // of the missing directories, deepest first
	for d := filepath.Clean(dir); d != filepath.Dir(d); d = filepath.Dir(d) {
		if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) {
			break
		}
		parents = append(parents, filepath.Dir(d))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := len(parents) - 1; i >= 0; i-- {
		if err := syncParent(parents[i]); err != nil {
			return fmt.Errorf("segfile: sync %s: %w", parents[i], err)
		}
	}
	return nil
}

// syncParent is the directory sync mkdirAll issues; tests count it.
var syncParent = syncDir

// syncDir fsyncs a directory, persisting the names created in it.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

func (d *DirFS) SyncDir() error { return syncDir(d.dir) }

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
