//go:build !race

package branch

const raceEnabled = false
