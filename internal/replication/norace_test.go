//go:build !race

package replication

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
