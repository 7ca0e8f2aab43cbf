//go:build !race

package frame

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
