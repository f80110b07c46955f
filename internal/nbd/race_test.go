//go:build race

package nbd

func init() { raceEnabled = true }
