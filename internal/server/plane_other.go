//go:build !unix

package server

// mapPlane falls back to the Go heap where anonymous mappings are not
// available; the garbage collector reclaims the plane.
func mapPlane(n int) (plane []byte, unmap func() error, err error) {
	return make([]byte, n), func() error { return nil }, nil
}
