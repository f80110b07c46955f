package segfile

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sort"
	"sync"

	"adapt/internal/sim"
)

// MemFS is an in-memory FS with explicit durability modelling: every
// inode tracks its cached (post-write) and synced (post-File.Sync)
// contents separately, page by page, and the directory tracks its
// cached and synced (post-SyncDir) namespaces separately. CrashImage
// materializes "what a crash right now would leave on disk": the
// synced namespace mapped to each inode's synced bytes. That is the
// conservative POSIX model — writes are volatile until fsync, and
// creations are volatile until the directory itself is synced.
// TornImage is the other end: a seeded choice of the unsynced writes
// reached the disk, page by page, in any order. Files are sparse: a
// page nothing wrote reads as zeros and costs no memory.
type MemFS struct {
	mu sync.Mutex
	// cached and synced are the live and durable namespaces; they map
	// names to shared inodes.
	cached map[string]*memInode
	synced map[string]*memInode
}

// memPage is one page of a file. A page is shared, never written in
// place, once a sync or an image holds it: writers clone it first.
type memPage [pageSize]byte

type memInode struct {
	size, syncedSize int64
	pages, synced    map[int64]*memPage
	// dirty holds the pages written or cut since the last sync, and
	// writes the unsynced WriteAts in issue order, for TornImage.
	dirty  map[int64]bool
	writes []memWrite
}

type memWrite struct {
	off int64
	p   []byte
}

func newInode() *memInode {
	return &memInode{
		pages:  make(map[int64]*memPage),
		synced: make(map[int64]*memPage),
		dirty:  make(map[int64]bool),
	}
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS {
	return &MemFS{
		cached: make(map[string]*memInode),
		synced: make(map[string]*memInode),
	}
}

// CrashImage returns a new MemFS holding the durable state only: the
// synced namespace, each file at its last-synced contents. The image is
// fully synced (as after a crash and remount).
func (m *MemFS) CrashImage() *MemFS { return m.TornImage(nil) }

// TornImage is CrashImage where a crash let some unsynced writes reach
// the disk: for every page an unsynced WriteAt touched, rng picks how
// many of the writes to that page, in issue order, made it — none, all,
// or a prefix, as a kernel writing the page back at some moment before
// the crash would leave it. Pages are independent of each other, so a
// later write can land while an earlier one to another page does not.
// The file keeps its synced size. A nil rng keeps no unsynced write.
func (m *MemFS) TornImage(rng *sim.RNG) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMemFS()
	names := make([]string, 0, len(m.synced))
	for name := range m.synced {
		names = append(names, name)
	}
	sort.Strings(names) // one rng draw order per image
	for _, name := range names {
		ino := m.synced[name]
		n := newInode()
		n.size, n.syncedSize = ino.syncedSize, ino.syncedSize
		for idx, pg := range ino.synced {
			n.pages[idx], n.synced[idx] = pg, pg
		}
		if rng != nil {
			n.tear(ino.writes, rng)
		}
		img.cached[name], img.synced[name] = n, n
	}
	return img
}

// tear applies a random per-page prefix of writes to n, a fresh image
// inode, as durable.
func (n *memInode) tear(writes []memWrite, rng *sim.RNG) {
	type frag struct {
		at int // offset in the page
		p  []byte
	}
	byPage := make(map[int64][]frag)
	var order []int64
	for _, w := range writes {
		for off, p := w.off, w.p; len(p) > 0; {
			idx, at := off/pageSize, int(off%pageSize)
			k := min(len(p), pageSize-at)
			if _, seen := byPage[idx]; !seen {
				order = append(order, idx)
			}
			byPage[idx] = append(byPage[idx], frag{at, p[:k]})
			off, p = off+int64(k), p[k:]
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, idx := range order {
		frags := byPage[idx]
		keep := rng.Intn(len(frags) + 1)
		if keep == 0 || idx*pageSize >= n.size {
			continue
		}
		pg := new(memPage)
		if old := n.pages[idx]; old != nil {
			*pg = *old
		}
		for _, f := range frags[:keep] {
			copy(pg[f.at:], f.p)
		}
		n.pages[idx], n.synced[idx] = pg, pg
	}
}

func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.cached[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		ino = newInode()
		m.cached[name] = ino
	case flag&os.O_TRUNC != 0:
		ino.truncate(0)
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *MemFS) ReadDir() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.cached))
	for name := range m.cached {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.synced = make(map[string]*memInode, len(m.cached))
	for name, ino := range m.cached {
		m.synced[name] = ino
	}
	return nil
}

var _ FS = (*MemFS)(nil)

// writable returns page idx ready to be written in place.
func (ino *memInode) writable(idx int64) *memPage {
	pg := ino.pages[idx]
	switch {
	case pg == nil:
		pg = new(memPage)
	case pg == ino.synced[idx]:
		clone := *pg
		pg = &clone
	}
	ino.pages[idx] = pg
	ino.dirty[idx] = true
	return pg
}

// truncate cuts or extends the cached contents to size.
func (ino *memInode) truncate(size int64) {
	if size < ino.size {
		for idx := range ino.pages {
			if idx*pageSize >= size {
				delete(ino.pages, idx)
				ino.dirty[idx] = true
			}
		}
		if at := size % pageSize; at != 0 && ino.pages[size/pageSize] != nil {
			clear(ino.writable(size / pageSize)[at:])
		}
	}
	ino.size = size
}

type memFile struct {
	fs  *MemFS
	ino *memInode
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino := f.ino
	ino.writes = append(ino.writes, memWrite{off: off, p: append([]byte(nil), p...)})
	for o, rest := off, p; len(rest) > 0; {
		at := int(o % pageSize)
		n := copy(ino.writable(o / pageSize)[at:], rest)
		o, rest = o+int64(n), rest[n:]
	}
	ino.size = max(ino.size, off+int64(len(p)))
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino := f.ino
	if off >= ino.size {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), ino.size-off))
	for o, rest := off, p[:n]; len(rest) > 0; {
		at := int(o % pageSize)
		var k int
		if pg := ino.pages[o/pageSize]; pg != nil {
			k = copy(rest, pg[at:])
		} else {
			k = min(len(rest), pageSize-at)
			clear(rest[:k])
		}
		o, rest = o+int64(k), rest[k:]
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.truncate(size)
	return nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino := f.ino
	for idx := range ino.dirty {
		if pg := ino.pages[idx]; pg != nil {
			ino.synced[idx] = pg
		} else {
			delete(ino.synced, idx)
		}
	}
	clear(ino.dirty)
	ino.writes = ino.writes[:0]
	ino.syncedSize = ino.size
	return nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.ino.size, nil
}

// ErrCrashed is returned by every CrashFS operation at and after the
// injected crash point: the killed syscall fails atomically (no partial
// effect) and the "process" never reaches the kernel again.
var ErrCrashed = errors.New("segfile: injected crash")

// CrashFS wraps a MemFS and kills the world at an exact syscall
// boundary: the Budget-th FS or File operation — and every one after
// it — fails with ErrCrashed and has no effect. Combined with MemFS's
// durability modelling, the surviving state is exactly CrashImage() of
// the underlying MemFS: synced file contents reachable through the
// synced namespace. The crash sweep drives a workload once with an
// infinite budget to count syscalls, then replays it once per boundary.
type CrashFS struct {
	mu     sync.Mutex
	inner  *MemFS
	budget int // syscalls still allowed; <= 0 means crashed
	calls  int
}

// NewCrashFS wraps inner, allowing budget syscalls before the crash.
// A negative budget never crashes (used for the counting run).
func NewCrashFS(inner *MemFS, budget int) *CrashFS {
	return &CrashFS{inner: inner, budget: budget}
}

// Calls returns how many syscalls were attempted (including any that
// failed with ErrCrashed).
func (c *CrashFS) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Crashed reports whether the crash point has been reached.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget == 0
}

// Image returns the post-crash durable state of the wrapped MemFS.
func (c *CrashFS) Image() *MemFS { return c.inner.CrashImage() }

// TornImage is Image in the torn-overwrite mode: a seeded,
// page-granular subset of each file's unsynced writes reached the disk
// too (MemFS.TornImage).
func (c *CrashFS) TornImage(seed uint64) *MemFS { return c.inner.TornImage(sim.NewRNG(seed)) }

// step consumes one syscall from the budget; it reports whether the
// operation may proceed.
func (c *CrashFS) step() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.budget == 0 {
		return false
	}
	if c.budget > 0 {
		c.budget--
		if c.budget == 0 {
			// This call is the crash point: it fails with no effect.
			return false
		}
	}
	return true
}

func (c *CrashFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if !c.step() {
		return nil, ErrCrashed
	}
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: c, f: f}, nil
}

func (c *CrashFS) ReadDir() ([]string, error) {
	if !c.step() {
		return nil, ErrCrashed
	}
	return c.inner.ReadDir()
}

func (c *CrashFS) SyncDir() error {
	if !c.step() {
		return ErrCrashed
	}
	return c.inner.SyncDir()
}

var _ FS = (*CrashFS)(nil)

type crashFile struct {
	fs *CrashFS
	f  File
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.fs.step() {
		return 0, ErrCrashed
	}
	return f.f.WriteAt(p, off)
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.step() {
		return 0, ErrCrashed
	}
	return f.f.ReadAt(p, off)
}

func (f *crashFile) Truncate(size int64) error {
	if !f.fs.step() {
		return ErrCrashed
	}
	return f.f.Truncate(size)
}

func (f *crashFile) Sync() error {
	if !f.fs.step() {
		return ErrCrashed
	}
	return f.f.Sync()
}

func (f *crashFile) Close() error {
	if !f.fs.step() {
		return ErrCrashed
	}
	return f.f.Close()
}

func (f *crashFile) Size() (int64, error) {
	if !f.fs.step() {
		return 0, ErrCrashed
	}
	return f.f.Size()
}
