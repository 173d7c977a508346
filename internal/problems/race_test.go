//go:build race

package problems

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
