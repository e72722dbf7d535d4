package store

// Power-loss tests of the chunk log. A power loss keeps each segment's
// bytes as of its last fsync and the directory's entries as of its last
// fsync; a name created or unlinked since may or may not have reached
// the disk. Segments are append-only, so what an fsync makes durable is
// a prefix: the file's size when the "synced" hook fired. The root
// package's harness runs the same model through the whole engine,
// torn pages included.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/obs"
)

// segDisk follows what a power loss would keep of a chunk log.
type segDisk struct {
	t       *testing.T
	dir     string
	synced  map[string][]byte // segment name → its bytes as of its last fsync
	entries map[string]bool   // names as of the last directory fsync
}

func newSegDisk(t *testing.T, fs *FileStore, dir string) *segDisk {
	d := &segDisk{t: t, dir: dir, synced: map[string][]byte{}, entries: map[string]bool{}}
	fs.crashHook = func(event string, seg int) {
		switch event {
		case "synced":
			data, err := os.ReadFile(segName(dir, seg))
			if err != nil {
				t.Fatal(err)
			}
			d.synced[filepath.Base(segName(dir, seg))] = data
		case "dir-synced":
			d.entries = map[string]bool{}
			for _, name := range segmentFiles(t, dir) {
				d.entries[name] = true
			}
		}
	}
	return d
}

// image builds what a power loss now may leave: with rng nil, the
// names of the last directory fsync; else each name created or
// unlinked since takes either side at random. Each file holds its
// fsynced bytes.
func (d *segDisk) image(rng *rand.Rand) string {
	img := d.t.TempDir()
	now := map[string]bool{}
	for _, name := range segmentFiles(d.t, d.dir) {
		now[name] = true
	}
	for _, names := range []map[string]bool{d.entries, now} {
		for name := range names {
			keep := d.entries[name]
			if rng != nil && d.entries[name] != now[name] && rng.Intn(2) == 0 {
				keep = now[name]
			}
			if !keep {
				continue
			}
			if err := os.WriteFile(filepath.Join(img, name), d.synced[name], 0o644); err != nil {
				d.t.Fatal(err)
			}
		}
	}
	return img
}

// keeps reopens img and requires every chunk in want to read back.
func keeps(t *testing.T, img, when string, want map[chunk.ID][]byte) {
	t.Helper()
	fs, err := OpenFileStore(img, FileStoreOptions{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	defer fs.Close()
	for id, data := range want {
		c, err := fs.Get(id)
		if err != nil {
			t.Fatalf("%s: chunk %s lost to a power loss: %v", when, id.Short(), err)
		}
		if string(c.Data()) != string(data) {
			t.Fatalf("%s: chunk %s content differs", when, id.Short())
		}
	}
}

// TestPowerLossSync: every chunk written before a Sync survives a power
// loss after it, when the chunks span rotations, and a Sync with
// nothing written since the last fsyncs nothing.
func TestPowerLossSync(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	d := newSegDisk(t, fs, dir)
	rng := rand.New(rand.NewSource(5))
	reg := obs.NewRegistry()
	hist := reg.Histogram("fsync", "")
	want := map[chunk.ID][]byte{}
	for round := 0; round < 12; round++ {
		for i := 0; i < round%4*7; i++ {
			c := testChunk(fmt.Sprintf("r%d-%d", round, i), 200+rng.Intn(1500))
			if _, err := fs.Put(c); err != nil {
				t.Fatal(err)
			}
			want[c.ID()] = c.Data()
		}
		before := reg.Snapshot()[0].Value
		if err := fs.Sync(hist); err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot()[0].Value - before; round > 0 && round%4 == 0 && got != 0 {
			t.Fatalf("round %d: a Sync with no chunk written fsynced (%d)", round, got)
		}
		for r := 0; r < 4; r++ {
			var pick *rand.Rand
			if r > 0 {
				pick = rand.New(rand.NewSource(int64(round*4 + r)))
			}
			keeps(t, d.image(pick), fmt.Sprintf("after Sync %d, image %d", round, r), want)
		}
	}
	if len(segmentFiles(t, dir)) < 5 {
		t.Fatalf("the chunks fill %d segments; the test wants rotations between Syncs", len(segmentFiles(t, dir)))
	}
}

// TestPowerLossCompaction: a young-only sweep compacts segments of
// synced chunks; at each of its steps a power loss keeps every live
// chunk, whichever of the names it created or unlinked reached the
// disk.
func TestPowerLossCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	d := newSegDisk(t, fs, dir)
	live := map[chunk.ID][]byte{}
	isLive := func(id chunk.ID) bool { _, ok := live[id]; return ok }
	put := func(tag string, n int, keep bool) {
		for i := 0; i < n; i++ {
			c := testChunk(fmt.Sprintf("%s%03d", tag, i), 300+i*7%900)
			if _, err := fs.Put(c); err != nil {
				t.Fatal(err)
			}
			if keep || i%3 == 0 {
				live[c.ID()] = c.Data()
			}
		}
		if err := fs.Sync(new(obs.Histogram)); err != nil {
			t.Fatal(err)
		}
	}
	put("old", 20, true)
	fs.BeginGC()
	_, _, gen, err := fs.sweepSince(0, isLive, 0.95)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	put("young", 45, false)
	var steps int
	hook := fs.crashHook
	fs.crashHook = func(event string, seg int) {
		hook(event, seg)
		for r := 0; r < 3; r++ {
			var pick *rand.Rand
			if r > 0 {
				pick = rand.New(rand.NewSource(int64(steps*3 + r)))
			}
			keeps(t, d.image(pick), fmt.Sprintf("%s(seg=%d), image %d", event, seg, r), live)
		}
		steps++
	}
	fs.BeginGC()
	stats, _, _, err := fs.sweepSince(gen, isLive, 0.95)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsCompacted == 0 || steps == 0 {
		t.Fatalf("the young-only sweep compacted nothing: %+v", stats)
	}
}
