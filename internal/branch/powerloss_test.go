package branch

// Power-loss test of the journal: a power loss keeps meta.wal's bytes as
// of its last fsync and the directory's entries as of its last fsync,
// or any later run of the WAL's bytes. Compactions (tmp fsynced,
// renamed, directory fsynced, WAL truncated) run on the SnapshotEvery
// cadence throughout. The root package's harness runs the same model
// through the engine, chunk log included.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"forkbase/internal/store"
)

// TestPowerLossJournal records one op per step, a pin every fifth and
// a master update otherwise, and after every fsync, every compaction
// step and every acknowledged step rebuilds the directory a power loss
// may leave: it must recover the state of a prefix of the steps that
// holds every acknowledged one.
func TestPowerLossJournal(t *testing.T) {
	dir := t.TempDir()
	var (
		wal, snap, tmp []byte // bytes as of each file's last fsync
		walLinked      bool   // meta.wal's entry survives
		points         []func(rng *rand.Rand) string
	)
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// point captures what a power loss now may leave: the snapshot as
	// last renamed, and the WAL as last fsynced or, with rng, a random
	// run of what was written after the bytes both share.
	point := func() func(rng *rand.Rand) string {
		durable, now, linked, snapNow := wal, read(walName), walLinked, snap
		return func(rng *rand.Rand) string {
			img := t.TempDir()
			if snapNow != nil {
				if err := os.WriteFile(filepath.Join(img, snapName), snapNow, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if !linked && (rng == nil || rng.Intn(2) == 0) {
				return img
			}
			data := durable
			if rng != nil && rng.Intn(2) == 0 {
				same := 0
				for same < len(durable) && same < len(now) && durable[same] == now[same] {
					same++
				}
				data = now[:same+rng.Intn(len(now)-same+1)]
			}
			if err := os.WriteFile(filepath.Join(img, walName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return img
		}
	}
	j, sp, _ := openTestJournal(t, dir, JournalOptions{
		Sync:          true,
		SnapshotEvery: 6,
		// The chunk log's first Sync fsyncs the directory the WAL
		// shares with it.
		Barrier: func() error {
			if !walLinked {
				store.SyncDir(dir)
				walLinked = true
			}
			return nil
		},
	})
	defer j.Close()
	j.crashHook = func(event string) {
		switch event {
		case "synced":
			wal = read(walName)
		case "snap-written":
			tmp = read(snapTmpName)
		case "snap-renamed":
			snap, walLinked = tmp, true
		}
		points = append(points, point())
	}
	// recovered opens img and returns the prefix length its state is.
	recovered := func(img string) (int, bool) {
		_, got, pins := openTestJournal(t, img, JournalOptions{})
		master := -1
		if tb, ok := got.Lookup([]byte("k")); ok {
			if h, ok := tb.Head("master"); ok {
				master = int(h[0]) | int(h[1])<<8
			}
		}
		for k := 0; k < 1000; k++ {
			last := k // the last master update of the first k steps
			if k%5 == 0 {
				last = k - 1
			}
			if last < 1 {
				last = -1
			}
			if last == master && len(pins) == k/5 {
				return k, true
			}
		}
		return 0, false
	}
	check := func(p func(*rand.Rand) string, when string, lo, hi int) {
		for r := 0; r < 4; r++ {
			var rng *rand.Rand
			if r > 0 {
				rng = rand.New(rand.NewSource(int64(lo*8 + r)))
			}
			k, ok := recovered(p(rng))
			if !ok || k < lo || k > hi {
				t.Fatalf("power loss %s, image %d: recovered %d steps (ok %v), want %d..%d", when, r, k, ok, lo, hi)
			}
		}
	}
	tb := sp.Table([]byte("k"))
	for i := 1; i <= 40; i++ {
		var err error
		if i%5 == 0 {
			err = j.Record(Op{Kind: OpPin, UID: juid(1000 + i)})
		} else {
			err = tb.UpdateTagged("master", juid(i), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			check(p, fmt.Sprintf("during step %d", i), i-1, i)
		}
		points = points[:0]
		check(point(), fmt.Sprintf("after step %d", i), i, i)
	}
	if j.Stats().SnapshotBytes == 0 {
		t.Fatal("no compaction ran")
	}
}
