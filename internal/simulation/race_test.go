//go:build race

package simulation

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
