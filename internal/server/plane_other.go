//go:build !unix

package server

// mapPlane falls back to the Go heap where anonymous mappings are not
// available; the garbage collector reclaims the plane.
func mapPlane(n int) (*plane, error) {
	return &plane{mem: make([]byte, n), unmap: func() error { return nil }}, nil
}
