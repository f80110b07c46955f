package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"adapt/internal/segfile"
)

// volManifest pins the volume carve-up of a data directory. The server
// splits the engine's LBA space by Config.Volumes at boot, so reusing
// a directory under a different geometry would silently remap every
// tenant's blocks; the manifest turns that into a hard error.
type volManifest struct {
	Volumes    int   `json:"volumes"`
	VolBlocks  int64 `json:"vol_blocks"`
	BlockBytes int   `json:"block_bytes"`
}

const manifestName = "manifest.json"

// openVolumeFiles makes a vol-N.dat file every volume's byte store,
// creating the directory (segfile.NewDirFS syncs the parent of every
// directory it creates) and manifest on first boot and verifying the
// manifest on reuse. A boot that creates a name syncs the directory
// once after the last one, so an ack never rests on a file a power cut
// could unlink. On an error the files attached so far stay with their
// volumes for the caller's closeVolumes.
func (s *Server) openVolumeFiles(dir string) error {
	dfs, err := segfile.NewDirFS(dir)
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	want := volManifest{
		Volumes:    len(s.vols),
		VolBlocks:  s.vols[0].blocks,
		BlockBytes: s.vols[0].blockBytes,
	}
	created := false
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		var got volManifest
		if jerr := json.Unmarshal(raw, &got); jerr != nil {
			return fmt.Errorf("server: corrupt %s: %w", mpath, jerr)
		}
		if got != want {
			return fmt.Errorf("server: %s geometry %+v does not match configured %+v", mpath, got, want)
		}
	case errors.Is(err, os.ErrNotExist):
		if werr := writeManifest(mpath, want); werr != nil {
			return werr
		}
		created = true
	default:
		return fmt.Errorf("server: read %s: %w", mpath, err)
	}
	for _, v := range s.vols {
		path := filepath.Join(dir, fmt.Sprintf("vol-%d.dat", v.id))
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if errors.Is(err, os.ErrNotExist) {
			f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			created = true
		}
		if err == nil {
			err = v.attachFile(f)
			if err != nil {
				f.Close()
			}
		}
		if err != nil {
			return err
		}
	}
	if created {
		if err := dfs.SyncDir(); err != nil {
			return fmt.Errorf("server: data dir sync: %w", err)
		}
	}
	return nil
}

// writeManifest creates the manifest atomically (tmp + sync + rename),
// so a crash mid-boot leaves either no manifest or a whole one; the
// caller's directory sync makes the rename durable.
func writeManifest(path string, m volManifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: write manifest: %w", err)
	}
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: write manifest: %w", err)
	}
	return nil
}
