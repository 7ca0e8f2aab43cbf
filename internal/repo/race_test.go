//go:build race

package repo

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
