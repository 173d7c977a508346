//go:build !race

package multiwalk

const raceEnabled = false
