package server

import (
	"testing"

	"adapt/internal/server/bufpool"
)

// poisonReleases fills every buffer handed back to bufpool with
// bufpool.PoisonByte for the rest of t, so a frame released before its
// last reader ran shows up as corrupt bytes in a read-back.
func poisonReleases(t testing.TB) {
	was := bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(was) })
}

// raceEnabled is set by race_test.go under the race detector, whose
// sync.Pool drops a quarter of the buffers it is handed.
var raceEnabled bool
