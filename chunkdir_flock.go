//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package forkbase

import (
	"os"
	"path/filepath"
	"syscall"
)

// lockChunkDir takes an exclusive flock on a lock file in dir, a
// private chunk directory Dial just made, and holds it while the
// returned file stays open. The kernel drops the lock when its process
// dies, however it dies, which is what lets a later Dial tell a dead
// owner's directory from a live one (sweepChunkDirs). The file is
// locked under a temporary name and only then renamed into place, so a
// sweeper never finds a lock file its live owner does not hold yet.
func lockChunkDir(dir string) (*os.File, error) {
	tmp := filepath.Join(dir, chunkDirLock+".new")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	if err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err == nil {
		err = os.Rename(tmp, filepath.Join(dir, chunkDirLock))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// sweepChunkDirs removes the private chunk directories under
// os.TempDir() whose owner is gone: those with a lock file nobody
// holds. It takes the lock before it removes anything, so two sweepers
// never both remove a directory and no owner can start using one it
// is removing. A directory without a lock file is left alone: its
// owner may be between making it and locking it.
func sweepChunkDirs() {
	dirs, _ := filepath.Glob(filepath.Join(os.TempDir(), privateDirPrefix+"*"))
	for _, dir := range dirs {
		if fi, err := os.Lstat(dir); err != nil || !fi.IsDir() {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, chunkDirLock), os.O_RDWR, 0)
		if err != nil {
			continue
		}
		if syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil {
			os.RemoveAll(dir)
		}
		f.Close()
	}
}
