//go:build race

package wire

// raceEnabled lets allocation pins skip themselves: under the race
// runtime sync.Pool drops a share of its Puts on purpose, so a pooled
// cycle allocates by design.
const raceEnabled = true
