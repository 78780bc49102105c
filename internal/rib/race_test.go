//go:build race

package rib

// raceEnabled reports a -race build. The race detector keeps shadow
// memory and history for every goroutine and allocation, so a heap
// figure taken under it measures the detector, not the RIB.
const raceEnabled = true
