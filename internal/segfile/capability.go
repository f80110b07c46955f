package segfile

// Capability describes what the host filesystem offers the durable
// path. The benchmark quotes it so a durable-path number can say what
// it was measured on (an ext4 host and an overlayfs container measure
// very different things).
type Capability struct {
	// FSType is the filesystem type name backing the probed directory
	// ("ext4", "tmpfs", "overlayfs", ...), "unknown" when the platform
	// offers no statfs.
	FSType string `json:"fs_type"`
}

// Probe reports dir's durable-path capability.
func Probe(dir string) Capability {
	return Capability{FSType: fsTypeName(dir)}
}
