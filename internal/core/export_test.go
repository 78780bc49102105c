package core

import (
	"os"
	"testing"
)

// SetPoison switches release poisoning (release.go) on or off and returns
// the previous setting. Call it only while no simulation is running.
func SetPoison(on bool) (was bool) {
	was, poisonReleased = poisonReleased, on
	return was
}

// TestMain runs every test of this directory with release poisoning on.
// Retries and stale completions for re-issued tags, lossy and flapping
// links, multicast clones, election floods, partial assimilation, path
// distribution and the distributed team all recycle requests and packets
// here; a use after release then fails, or panics in, the test that
// provoked it.
func TestMain(m *testing.M) {
	poisonReleased = true
	os.Exit(m.Run())
}
