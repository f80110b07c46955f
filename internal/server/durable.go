package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// creating the directory and manifest on first boot and verifying the
// manifest on reuse. On an error the files attached so far stay with
// their volumes for the caller's closeVolumes.
func (s *Server) openVolumeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	want := volManifest{
		Volumes:    len(s.vols),
		VolBlocks:  s.vols[0].blocks,
		BlockBytes: s.vols[0].blockBytes,
	}
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
	default:
		return fmt.Errorf("server: read %s: %w", mpath, err)
	}
	for _, v := range s.vols {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("vol-%d.dat", v.id)), os.O_RDWR|os.O_CREATE, 0o644)
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
	return nil
}

// writeManifest creates the manifest atomically (tmp + rename + dir
// sync), so a crash mid-boot leaves either no manifest or a whole one.
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
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
