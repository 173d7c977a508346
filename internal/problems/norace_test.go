//go:build !race

package problems

const raceEnabled = false
