//go:build race

package experiment

// raceEnabled reports a -race build. The race detector slows the
// simulation tenfold or more, so the whole-results referee, which runs
// every experiment at four seeds, is left to the plain build.
const raceEnabled = true
