package store

// Crash-consistency harness for segment compaction. A Sweep rewrites
// live records and deletes their old segments; a crash (process kill,
// torn write) at any byte of that process must leave every live chunk
// with at least one intact on-disk copy. The harness drives a real
// compaction and, at every instrumented point (via FileStore.crashHook),
// snapshots the directory exactly as the filesystem holds it at that
// moment — unflushed bufio bytes are absent from the snapshot,
// precisely what a kill would lose. Each snapshot is then reopened
// like a restarted process, and every live chunk must read back intact
// with no ErrCorrupt.
//
// Torn writes are modelled on top with byte-offset truncation, applied
// only to bytes past the store's last durability barrier: the sweep
// fsyncs relocated records before unlinking their old segment, so
// bytes below the barrier are beyond a crash's reach, while anything
// appended since — captured at the "appended" hook, before the flush —
// is fair game at any offset. The harness tracks the barrier per
// segment file (its size at the last post-barrier hook) and truncates
// at pseudo-random offsets in the tearable range.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"forkbase/internal/chunk"
)

// snapshot copies the on-disk state of a store directory.
func snapshot(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// newestSegment returns the highest-numbered segment file name in dir,
// or "".
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	names := segmentFiles(t, dir)
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[len(names)-1]
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// verifyLive opens dir as a fresh store and asserts every live chunk
// reads back intact.
func verifyLive(t *testing.T, dir, when string, content map[chunk.ID][]byte, live map[chunk.ID]bool) {
	t.Helper()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	defer fs.Close()
	for id, ok := range live {
		if !ok {
			continue
		}
		c, err := fs.Get(id)
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: live chunk %s corrupt after crash: %v", when, id.Short(), err)
		}
		if err != nil {
			t.Fatalf("%s: live chunk %s lost after crash: %v", when, id.Short(), err)
		}
		if string(c.Data()) != string(content[id]) {
			t.Fatalf("%s: live chunk %s content mismatch after crash", when, id.Short())
		}
	}
}

// crashSnap is one simulated crash point.
type crashSnap struct {
	dir      string
	when     string
	tearFrom int64 // truncation offsets >= tearFrom are fair; -1 = none
}

// harnessSweep populates a store, runs a compacting sweep with the
// crash hook installed, and returns the captured crash points plus the
// expected content and live set. With young set, the store first holds
// a quarter as many old chunks, all live, that a completed sweep kept;
// the chunks written after it are young, and the hooked sweep is the
// young-only one that compacts their segments alone.
func harnessSweep(t *testing.T, chunks, minSize, maxSize int, segSize int64, young bool) ([]crashSnap, map[chunk.ID][]byte, map[chunk.ID]bool) {
	t.Helper()
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	content := map[chunk.ID][]byte{}
	live := map[chunk.ID]bool{}
	put := func(name string, i int, isLive bool) {
		c := testChunk(fmt.Sprintf("%s%04d", name, i), minSize+i%(maxSize-minSize))
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		content[c.ID()] = append([]byte(nil), c.Data()...)
		live[c.ID()] = isLive
	}
	var gen uint64
	var oldSegs map[string]int64
	if young {
		for i := 0; i < chunks/4; i++ {
			put("old", i, true)
		}
		fs.BeginGC()
		_, _, gen, err = fs.sweepSince(0, func(id chunk.ID) bool { return live[id] }, 0.95)
		fs.EndGC()
		if err != nil {
			t.Fatal(err)
		}
		// Every segment but the active one is sealed and holds only old
		// chunks.
		oldSegs = map[string]int64{}
		active := newestSegment(t, dir)
		for _, name := range segmentFiles(t, dir) {
			if name != active {
				oldSegs[name] = fileSize(t, filepath.Join(dir, name))
			}
		}
		if len(oldSegs) == 0 {
			t.Fatal("harness needs sealed segments of old chunks")
		}
	}
	for i := 0; i < chunks; i++ {
		put("cc", i, i%3 == 0)
	}

	var snaps []crashSnap
	// barriers[file] = the file's size at the last hook known to be
	// past a durability barrier (plan/relocated/unlinked). Bytes below
	// it are fsynced and cannot be torn by a crash.
	barriers := map[string]int64{}
	fs.crashHook = func(event string, seg int) {
		s := crashSnap{
			dir:      snapshot(t, dir),
			when:     fmt.Sprintf("%s(seg=%d)", event, seg),
			tearFrom: -1,
		}
		newest := newestSegment(t, dir)
		if event == "appended" && newest != "" {
			s.tearFrom = barriers[newest]
		} else {
			for _, name := range segmentFiles(t, dir) {
				barriers[name] = fileSize(t, filepath.Join(dir, name))
			}
		}
		snaps = append(snaps, s)
	}
	fs.BeginGC()
	stats, _, _, err := fs.sweepSince(gen, func(id chunk.ID) bool { return live[id] }, 0.95)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsCompacted == 0 {
		t.Fatalf("harness needs compactions to crash, got %+v", stats)
	}
	for name, size := range oldSegs {
		if fileSize(t, filepath.Join(dir, name)) != size {
			t.Fatalf("young-only sweep touched %s, a segment of old chunks", name)
		}
	}
	fs.Close()
	if len(snaps) < 4 {
		t.Fatalf("only %d crash points captured", len(snaps))
	}
	return snaps, content, live
}

// TestGCCrashConsistency simulates a kill at every hook point of a
// multi-segment compaction and reopens each snapshot: every live chunk
// must survive, whichever copy (original or relocation) the recovery
// finds first.
func TestGCCrashConsistency(t *testing.T) {
	snaps, content, live := harnessSweep(t, 300, 120, 1020, 4<<10, false)
	for _, s := range snaps {
		verifyLive(t, s.dir, s.when, content, live)
	}
}

// TestGCCrashConsistencyYoungOnly runs the same kill points over a
// young-only sweep: it compacts the segments written since the last
// sweep, and every live chunk, old or young, keeps an intact copy.
func TestGCCrashConsistencyYoungOnly(t *testing.T) {
	snaps, content, live := harnessSweep(t, 300, 120, 1020, 4<<10, true)
	for _, s := range snaps {
		verifyLive(t, s.dir, s.when, content, live)
	}
}

// TestGCCrashTornWrites layers torn tails over the kill points: the
// newest segment is truncated at arbitrary byte offsets within the
// tearable range (past the last fsync barrier) before reopening. Live
// chunks must still read back intact — their old segments are only
// unlinked after the barrier.
func TestGCCrashTornWrites(t *testing.T) {
	// Enough live bytes per segment (> the 1 MiB write buffer) that
	// relocations spill to disk before the barrier, leaving a real
	// tearable tail at the "appended" crash points.
	tearSweep(t, false)
}

// TestGCCrashTornWritesYoungOnly tears the tails of a young-only
// sweep's relocations.
func TestGCCrashTornWritesYoungOnly(t *testing.T) {
	tearSweep(t, true)
}

func tearSweep(t *testing.T, young bool) {
	snaps, content, live := harnessSweep(t, 500, 6<<10, 10<<10, 8<<20, young)
	rng := rand.New(rand.NewSource(11))
	tore := 0
	for _, s := range snaps {
		if s.tearFrom < 0 {
			continue
		}
		for i := 0; i < 4; i++ {
			torn := snapshot(t, s.dir)
			newest := newestSegment(t, torn)
			if newest == "" {
				continue
			}
			path := filepath.Join(torn, newest)
			size := fileSize(t, path)
			if size <= s.tearFrom {
				continue // nothing past the barrier to tear
			}
			cut := s.tearFrom + rng.Int63n(size-s.tearFrom+1)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
			tore++
			verifyLive(t, torn, fmt.Sprintf("%s+torn@%d", s.when, cut), content, live)
		}
	}
	if tore == 0 {
		t.Skip("no tearable bytes captured (all relocations auto-flushed)")
	}
}

// TestGCCrashKillsUnflushedRelocations proves the durability barrier
// matters: snapshots taken right after an unlink — when the old
// segment is gone and only the fsynced relocations remain — must still
// serve every live chunk. This is the moment that silently loses data
// in designs that unlink before syncing.
func TestGCCrashKillsUnflushedRelocations(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	content := map[chunk.ID][]byte{}
	live := map[chunk.ID]bool{}
	for i := 0; i < 120; i++ {
		c := testChunk(fmt.Sprintf("kb%03d", i), 200)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		content[c.ID()] = append([]byte(nil), c.Data()...)
		live[c.ID()] = i%2 == 0
	}
	var postUnlink []string
	fs.crashHook = func(event string, seg int) {
		if event == "unlinked" {
			postUnlink = append(postUnlink, snapshot(t, dir))
		}
	}
	fs.BeginGC()
	if _, _, err := fs.Sweep(func(id chunk.ID) bool { return live[id] }, 0.95); err != nil {
		t.Fatal(err)
	}
	fs.EndGC()
	fs.Close()
	if len(postUnlink) == 0 {
		t.Fatal("no post-unlink crash points captured")
	}
	for i, d := range postUnlink {
		verifyLive(t, d, fmt.Sprintf("post-unlink[%d]", i), content, live)
	}
}
