//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package forkbase

import "os"

// lockChunkDir and sweepChunkDirs need flock; without it a private
// chunk directory is unlocked, and one a killed client leaves behind
// stays until removed by hand.
func lockChunkDir(string) (*os.File, error) { return nil, nil }

func sweepChunkDirs() {}
