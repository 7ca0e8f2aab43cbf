//go:build race

package wire

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
