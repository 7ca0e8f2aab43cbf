//go:build race

package storedb

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
