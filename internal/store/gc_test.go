package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"forkbase/internal/chunk"
)

// testChunk builds a deterministic chunk of n bytes seeded by tag.
func testChunk(tag string, n int) *chunk.Chunk {
	rng := rand.New(rand.NewSource(int64(len(tag)) + int64(n)))
	data := make([]byte, n)
	rng.Read(data)
	copy(data, tag)
	return chunk.New(chunk.TypeBlob, data)
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			out = append(out, e.Name())
		}
	}
	return out
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestFileStoreGCSweep: dead chunks leave the index, mostly-dead
// segments are compacted off disk, live chunks survive with intact
// content, and the reclaimed bytes actually leave the directory.
func TestFileStoreGCSweep(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	var liveIDs, deadIDs []chunk.ID
	content := map[chunk.ID][]byte{}
	for i := 0; i < 200; i++ {
		c := testChunk(fmt.Sprintf("c%03d", i), 200+i)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		content[c.ID()] = append([]byte(nil), c.Data()...)
		if i%4 == 0 {
			liveIDs = append(liveIDs, c.ID())
		} else {
			deadIDs = append(deadIDs, c.ID())
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	live := make(map[chunk.ID]bool, len(liveIDs))
	for _, id := range liveIDs {
		live[id] = true
	}

	fs.BeginGC()
	stats, _, err := fs.Sweep(func(id chunk.ID) bool { return live[id] }, 0.5)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reclaimed != len(deadIDs) {
		t.Fatalf("reclaimed %d chunks, want %d", stats.Reclaimed, len(deadIDs))
	}
	if stats.SegmentsCompacted == 0 {
		t.Fatalf("expected segment compaction, got %+v", stats)
	}
	after := dirBytes(t, dir)
	if after >= before/2 {
		t.Fatalf("disk barely shrank: %d -> %d", before, after)
	}
	for _, id := range liveIDs {
		c, err := fs.Get(id)
		if err != nil {
			t.Fatalf("live chunk %s unreadable after sweep: %v", id.Short(), err)
		}
		if string(c.Data()) != string(content[id]) {
			t.Fatalf("live chunk %s corrupted after sweep", id.Short())
		}
	}
	for _, id := range deadIDs {
		if fs.Has(id) {
			t.Fatalf("dead chunk %s still present", id.Short())
		}
		if _, err := fs.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("dead chunk %s: got %v, want ErrNotFound", id.Short(), err)
		}
	}
	// The store must stay fully usable: re-put a collected chunk and a
	// fresh one.
	re := chunk.New(chunk.TypeBlob, content[deadIDs[0]])
	if dup, err := fs.Put(re); err != nil || dup {
		t.Fatalf("re-put collected chunk: dup=%v err=%v", dup, err)
	}
	if _, err := fs.Get(re.ID()); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the index rebuilt from the compacted segments
	// must serve every live chunk.
	fs.Close()
	fs2, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	for _, id := range liveIDs {
		if _, err := fs2.Get(id); err != nil {
			t.Fatalf("live chunk %s unreadable after reopen: %v", id.Short(), err)
		}
	}
}

// TestFileStoreGCThreshold: a segment above the live-ratio threshold
// keeps its file (dead entries still leave the index), and a later
// sweep with a higher threshold compacts it.
func TestFileStoreGCThreshold(t *testing.T) {
	dir := t.TempDir()
	// One big segment so everything sits together.
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []chunk.ID
	for i := 0; i < 40; i++ {
		c := testChunk(fmt.Sprintf("t%02d", i), 512)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	// 90% live: under the 0.5 threshold the segment must be kept.
	live := make(map[chunk.ID]bool)
	for i, id := range ids {
		live[id] = i%10 != 0
	}
	fs.BeginGC()
	stats, _, err := fs.Sweep(func(id chunk.ID) bool { return live[id] }, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsCompacted != 0 || stats.SegmentsKept != 1 {
		t.Fatalf("want kept segment, got %+v", stats)
	}
	if stats.Reclaimed != 4 {
		t.Fatalf("want 4 dead entries dropped, got %+v", stats)
	}
	// Threshold 1.0 compacts anything with garbage: now the dup bytes
	// of the kept file must be rewritten away.
	stats, _, err = fs.Sweep(func(id chunk.ID) bool { return live[id] }, 1.0)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsCompacted == 0 {
		t.Fatalf("want compaction at threshold 1.0, got %+v", stats)
	}
	for i, id := range ids {
		_, err := fs.Get(id)
		if live[id] && err != nil {
			t.Fatalf("live %d unreadable: %v", i, err)
		}
		if !live[id] && !errors.Is(err, ErrNotFound) {
			t.Fatalf("dead %d: %v", i, err)
		}
	}
}

// TestGCPutProtectsDuringWindow: chunks written — or deduplicated —
// while the GC window is open must survive a sweep that does not know
// them, closing the mark/write race.
func TestGCPutProtectsDuringWindow(t *testing.T) {
	for _, backend := range []string{"file", "mem"} {
		t.Run(backend, func(t *testing.T) {
			var col Collectable
			if backend == "file" {
				fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				col = fs
			} else {
				col = NewMemStore()
			}
			old := testChunk("old", 300)
			if _, err := col.Put(old); err != nil {
				t.Fatal(err)
			}
			col.BeginGC()
			fresh := testChunk("fresh", 300)
			if _, err := col.Put(fresh); err != nil {
				t.Fatal(err)
			}
			// Deduplicated re-put of a chunk the marker considers dead.
			if dup, err := col.Put(testChunk("old", 300)); err != nil || !dup {
				t.Fatalf("dup=%v err=%v", dup, err)
			}
			stats, _, err := col.Sweep(func(chunk.ID) bool { return false }, 0)
			col.EndGC()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Reclaimed != 0 {
				t.Fatalf("protected chunks were reclaimed: %+v", stats)
			}
			for _, c := range []*chunk.Chunk{old, fresh} {
				if _, err := col.Get(c.ID()); err != nil {
					t.Fatalf("protected chunk %s: %v", c.ID().Short(), err)
				}
			}
			// Window closed: the same sweep now reclaims both.
			col.BeginGC()
			stats, _, err = col.Sweep(func(chunk.ID) bool { return false }, 0)
			col.EndGC()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Reclaimed != 2 {
				t.Fatalf("want 2 reclaimed after window closed, got %+v", stats)
			}
		})
	}
}

// TestGCSweepRequiresWindow: sweeping without BeginGC is refused — it
// would race every concurrent writer.
func TestGCSweepRequiresWindow(t *testing.T) {
	m := NewMemStore()
	if _, _, err := m.Sweep(func(chunk.ID) bool { return true }, 0); err == nil {
		t.Fatal("Sweep outside BeginGC window succeeded")
	}
	fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, _, err := fs.Sweep(func(chunk.ID) bool { return true }, 0); err == nil {
		t.Fatal("Sweep outside BeginGC window succeeded")
	}
}

// TestGCConcurrentReadsDuringSweep: readers racing a compaction never
// observe a missing or corrupt live chunk, even as their segments are
// rewritten and unlinked under them.
func TestGCConcurrentReadsDuringSweep(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var liveIDs []chunk.ID
	live := map[chunk.ID]bool{}
	for i := 0; i < 400; i++ {
		c := testChunk(fmt.Sprintf("r%03d", i), 150+i%700)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			liveIDs = append(liveIDs, c.ID())
			live[c.ID()] = true
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := liveIDs[rng.Intn(len(liveIDs))]
				if _, err := fs.Get(id); err != nil {
					select {
					case errCh <- fmt.Errorf("read of live %s during sweep: %w", id.Short(), err):
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	// Writers keep appending during the sweep too.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := testChunk(fmt.Sprintf("w%d-%04d", seed, i), 300)
				i++
				if _, err := fs.Put(c); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	fs.BeginGC()
	_, _, err = fs.Sweep(func(id chunk.ID) bool { return live[id] }, 0.9)
	fs.EndGC()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for _, id := range liveIDs {
		if _, err := fs.Get(id); err != nil {
			t.Fatalf("live chunk lost: %v", err)
		}
	}
}

// TestGCCacheDropDead: after a sweep, the cache drops exactly the ids
// the sweep reports reclaimed, so it serves live entries from memory
// and never resurrects a collected chunk.
func TestGCCacheDropDead(t *testing.T) {
	mem := NewMemStore()
	ca := NewCache(mem, 1<<20)
	liveC := testChunk("live", 400)
	deadC := testChunk("dead", 400)
	for _, c := range []*chunk.Chunk{liveC, deadC} {
		if _, err := ca.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	col, caches, ok := AsCollectable(ca)
	if !ok || len(caches) != 1 {
		t.Fatalf("AsCollectable through cache: ok=%v caches=%d", ok, len(caches))
	}
	isLive := func(id chunk.ID) bool { return id == liveC.ID() }
	col.BeginGC()
	_, dead, err := col.Sweep(isLive, 0)
	col.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != deadC.ID() {
		t.Fatalf("sweep reported %v reclaimed, want only the dead chunk", dead)
	}
	caches[0].Drop(dead)
	if _, err := ca.Get(deadC.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dead chunk served after Drop: %v", err)
	}
	if _, err := ca.Get(liveC.ID()); err != nil {
		t.Fatal(err)
	}
	if st := ca.Stats(); st.CacheHits == 0 {
		t.Fatal("live entry should have stayed cached")
	}
	if st := ca.Stats(); st.CacheBytes != int64(liveC.Size()) {
		t.Fatalf("cache holds %d bytes, want the live chunk's %d", st.CacheBytes, liveC.Size())
	}
}

// TestGCReclaimsOrphanSegments: a crash that leaves a fully-duplicated
// segment behind (all its records re-homed to a later segment during
// recovery) is cleaned up by the next sweep.
func TestGCReclaimsOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var ids []chunk.ID
	for i := 0; i < 30; i++ {
		c := testChunk(fmt.Sprintf("o%02d", i), 300)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	fs.Close()
	// Simulate the duplicate-leaving crash: copy segment 0's bytes to
	// a fresh trailing segment, as an interrupted compaction would.
	seg0, err := os.ReadFile(filepath.Join(dir, segmentFiles(t, dir)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segName(dir, 999999), seg0, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err = OpenFileStore(dir, FileStoreOptions{SegmentSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	all := map[chunk.ID]bool{}
	for _, id := range ids {
		all[id] = true
	}
	fs.BeginGC()
	_, _, err = fs.Sweep(func(id chunk.ID) bool { return all[id] }, 0.5)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := fs.Get(id); err != nil {
			t.Fatalf("chunk lost cleaning orphan segment: %v", err)
		}
	}
}

// TestGCSurvivorsAreCopiedOnce: what lives through a compaction ends in
// a sealed segment of its own, so the garbage written next does not
// drag it through the next compaction as well.
func TestGCSurvivorsAreCopiedOnce(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	live := map[chunk.ID]bool{}
	content := map[chunk.ID][]byte{}
	for i := 0; i < 20; i++ {
		c := testChunk(fmt.Sprintf("keep%02d", i), 300+i)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		live[c.ID()] = true
		content[c.ID()] = append([]byte(nil), c.Data()...)
	}
	// One round: 100 chunks nothing refers to, then a collection.
	round := func(r int) GCStats {
		t.Helper()
		for i := 0; i < 100; i++ {
			if _, err := fs.Put(testChunk(fmt.Sprintf("r%d-%03d", r, i), 400+i)); err != nil {
				t.Fatal(err)
			}
		}
		fs.BeginGC()
		st, _, err := fs.Sweep(func(id chunk.ID) bool { return live[id] }, 0)
		fs.EndGC()
		if err != nil {
			t.Fatal(err)
		}
		if st.Reclaimed != 100 || st.SegmentsCompacted != 1 {
			t.Fatalf("round %d: reclaimed %d chunks compacting %d segments, want 100 and 1", r, st.Reclaimed, st.SegmentsCompacted)
		}
		return st
	}
	if st := round(0); st.Relocated != len(live) {
		t.Fatalf("first collection relocated %d records, want the %d live ones", st.Relocated, len(live))
	}
	for r := 1; r <= 3; r++ {
		if st := round(r); st.Relocated != 0 {
			t.Fatalf("collection %d copied %d survivors (%d bytes) a second time", r, st.Relocated, st.RelocatedBytes)
		}
	}
	for id, want := range content {
		c, err := fs.Get(id)
		if err != nil || string(c.Data()) != string(want) {
			t.Fatalf("survivor %s unreadable or changed: %v", id.Short(), err)
		}
	}
}

// TestRotationPinsUncoveredRelocations: sealing a segment fsyncs it
// exactly when it holds relocated records no barrier has covered — here
// a Put's rotation that lands between a compaction's appends and its
// barrier, after which the barrier would sync the wrong file.
func TestRotationPinsUncoveredRelocations(t *testing.T) {
	const segSize = 8 << 10
	fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	live := map[chunk.ID]bool{}
	for i := 0; i < 12; i++ {
		c := testChunk(fmt.Sprintf("p%02d", i), 500)
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		live[c.ID()] = i%4 == 0
	}
	unpinned := func() bool {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		return fs.unpinned
	}
	if unpinned() {
		t.Fatal("fresh Puts left the active segment waiting for an fsync")
	}
	var relocSeg int
	raced := false
	fs.crashHook = func(event string, seg int) {
		switch event {
		case "appended":
			if !unpinned() {
				t.Errorf("relocations of seg %d appended but not marked as waiting for the barrier", seg)
			}
			if raced {
				return
			}
			raced = true
			fs.mu.RLock()
			relocSeg = fs.seg
			fs.mu.RUnlock()
			// A writer fills the segment the relocations sit in.
			for i := 0; fs.seg == relocSeg; i++ {
				if _, err := fs.Put(testChunk(fmt.Sprintf("w%03d", i), 1000)); err != nil {
					t.Error(err)
					return
				}
			}
			if unpinned() {
				t.Error("a rotation sealed uncovered relocations without pinning them")
			}
		case "relocated":
			if unpinned() {
				t.Errorf("barrier of seg %d passed, relocations still marked as waiting", seg)
			}
		}
	}
	fs.BeginGC()
	st, _, err := fs.Sweep(func(id chunk.ID) bool { return live[id] }, 0)
	fs.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	if !raced || st.Relocated == 0 {
		t.Fatalf("no compaction to race with: %+v", st)
	}
	if unpinned() {
		t.Fatal("sweep returned with relocations waiting for an fsync")
	}
	for id, l := range live {
		if _, err := fs.Get(id); l && err != nil {
			t.Fatalf("live chunk %s lost: %v", id.Short(), err)
		}
	}
}

// TestGCCollectorStaleGeneration: a collector reads only what changed
// since its own last collection, and falls back to the full mark when
// another collector swept the store in between.
func TestGCCollectorStaleGeneration(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	parent, child := testChunk("parent", 300), testChunk("child", 300)
	for _, c := range []*chunk.Chunk{parent, child} {
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	roots := func() ([]chunk.ID, error) { return []chunk.ID{parent.ID()}, nil }
	refs := func(c *chunk.Chunk) ([]chunk.ID, error) {
		if c.ID() == parent.ID() {
			return []chunk.ID{child.ID()}, nil
		}
		return nil, nil
	}
	reads := func(c *Collector) int64 {
		t.Helper()
		before := fs.Stats().Gets
		if _, err := c.Collect(context.Background(), fs, roots, refs, 0); err != nil {
			t.Fatal(err)
		}
		return fs.Stats().Gets - before
	}
	var a, b Collector
	for i, step := range []struct {
		c    *Collector
		want int64
	}{
		{&a, 2}, // first: full
		{&a, 0}, // nothing changed
		{&b, 2}, // b has no state
		{&a, 2}, // b swept since a's last collection
		{&a, 0},
	} {
		if got := reads(step.c); got != step.want {
			t.Fatalf("collection %d read %d chunks, want %d", i, got, step.want)
		}
	}
}
