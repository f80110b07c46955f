package segfile

import (
	"errors"
	"path/filepath"
	"slices"
	"testing"
)

// TestNewDirFSSyncsNewParents: opening a fresh a/b/c syncs the parent
// of each directory it made exactly once — the root, a and a/b — so
// none of the three names can vanish in a power cut; reopening, which
// creates nothing, syncs nothing; and a failed sync fails the creation.
func TestNewDirFSSyncsNewParents(t *testing.T) {
	root := t.TempDir()
	var synced []string
	defer func(orig func(string) error) { syncParent = orig }(syncParent)
	syncParent = func(dir string) error {
		synced = append(synced, dir)
		return syncDir(dir)
	}

	dir := filepath.Join(root, "a", "b", "c")
	if _, err := NewDirFS(dir); err != nil {
		t.Fatal(err)
	}
	want := []string{root, filepath.Join(root, "a"), filepath.Join(root, "a", "b")}
	if !slices.Equal(synced, want) {
		t.Fatalf("fresh %s synced %q, want %q", dir, synced, want)
	}

	synced = nil
	if _, err := NewDirFS(dir); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 0 {
		t.Fatalf("reopen synced %q, want nothing", synced)
	}

	boom := errors.New("boom")
	syncParent = func(string) error { return boom }
	if err := mkdirAll(filepath.Join(root, "d")); !errors.Is(err, boom) {
		t.Fatalf("mkdirAll with a failing sync = %v, want %v", err, boom)
	}
}
