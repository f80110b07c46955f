package lss

// UseVictimScan routes every store's victim selection through
// selectVictimsScan, the scan-and-sort reference, until restore is
// called. It swaps a package variable, so tests using it must not run
// in parallel with other store-driving tests.
func UseVictimScan() (restore func()) {
	selectVictims = (*Store).selectVictimsScan
	return func() { selectVictims = (*Store).selectVictimsIndexed }
}
