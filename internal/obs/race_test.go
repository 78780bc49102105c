//go:build race

package obs

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what is put back, on purpose, so an allocation count
// taken through the pool measures the detector, not the renderer.
const raceEnabled = true
