//go:build race

package core

// raceEnabled lets allocation pins skip themselves: the race runtime
// changes what every allocation costs.
const raceEnabled = true
