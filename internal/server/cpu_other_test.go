//go:build !unix

package server

import "time"

// processCPU is unavailable off unix.
func processCPU() (time.Duration, bool) { return 0, false }
