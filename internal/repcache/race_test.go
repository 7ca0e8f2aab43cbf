//go:build race

package repcache

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
