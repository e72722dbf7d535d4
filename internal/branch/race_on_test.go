//go:build race

package branch

// raceEnabled lets memory pins skip themselves: the race runtime
// changes what every allocation costs.
const raceEnabled = true
