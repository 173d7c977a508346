//go:build race

package dist

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
