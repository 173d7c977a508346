//go:build race

package main

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
