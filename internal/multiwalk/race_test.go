//go:build race

package multiwalk

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
