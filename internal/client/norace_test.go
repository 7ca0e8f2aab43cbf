//go:build !race

package client

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
