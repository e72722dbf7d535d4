package forkbase_test

// Incremental collection: a collection reads and sweeps only what was
// written since the previous one, and falls back to the full mark when
// an earlier root was dropped. The exact-count tests pin what a
// collection reads; the differential script holds a young-only
// collector to the result of a full one, chunk for chunk and byte for
// byte, through edits, forks, merges, removals, pins, Have windows,
// collections with writes inside them, cancelled collections and
// reopens.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// gcMap puts a Map of n keys under key on master.
func gcMap(t *testing.T, db *forkbase.DB, key string, n int) {
	t.Helper()
	m := forkbase.NewMap()
	for i := 0; i < n; i++ {
		if err := m.Set([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("value-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Put(tctx, key, m); err != nil {
		t.Fatal(err)
	}
}

// gcEditMap sets one key of the Map at key on branch and returns the
// chunks the put freshly wrote.
func gcEditMap(t *testing.T, db *forkbase.DB, key, branch, k, v string) int64 {
	t.Helper()
	o, err := db.Get(tctx, key, forkbase.WithBranch(branch))
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.MapOf(o)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if err := m.Set([]byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(tctx, key, m, forkbase.WithBranch(branch)); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	return (after.Puts - before.Puts) - (after.Dups - before.Dups)
}

// gcReads runs one collection and returns it with the chunks it read.
func gcReads(t *testing.T, db *forkbase.DB) (forkbase.GCStats, int64) {
	t.Helper()
	before := db.Stats().Gets
	st, err := db.GC(tctx)
	if err != nil {
		t.Fatal(err)
	}
	return st, db.Stats().Gets - before
}

func openGCPath(t *testing.T) *forkbase.DB {
	t.Helper()
	db, err := forkbase.OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestGCSecondCollectionReadsNothing: with no write since the last
// collection, every root is an old chunk and the walk reads none.
func TestGCSecondCollectionReadsNothing(t *testing.T) {
	db := openGCPath(t)
	gcMap(t, db, "doc", 3000)
	first, reads := gcReads(t, db)
	if reads == 0 || int64(first.Marked) != reads {
		t.Fatalf("first collection read %d chunks, marked %d: want a full mark", reads, first.Marked)
	}
	st, reads := gcReads(t, db)
	if reads != 0 {
		t.Fatalf("second collection read %d chunks, want 0", reads)
	}
	if st.Reclaimed != 0 || st.SegmentsCompacted != 0 {
		t.Fatalf("second collection changed the store: %+v", st)
	}
}

// TestGCAfterEditReadsTheEdit: after a one-leaf Map edit, a collection
// reads exactly the chunks the edit freshly wrote — the new meta chunk,
// leaf and index path — and stops at the old siblings.
func TestGCAfterEditReadsTheEdit(t *testing.T) {
	db := openGCPath(t)
	gcMap(t, db, "doc", 3000)
	gcReads(t, db)
	fresh := gcEditMap(t, db, "doc", "master", "key-01500", "changed")
	if fresh < 3 {
		t.Fatalf("a one-leaf edit of a 3000-key Map wrote %d chunks; want meta, leaf and index path", fresh)
	}
	st, reads := gcReads(t, db)
	if reads != fresh {
		t.Fatalf("collection after the edit read %d chunks, want the %d it wrote", reads, fresh)
	}
	// The edit replaced one leaf and its index path; the old copies
	// stay live through master's history.
	if st.Reclaimed != 0 {
		t.Fatalf("collection reclaimed %d chunks of a live history", st.Reclaimed)
	}
}

// TestGCFallsBackAfterRemoveBranch: dropping a branch whose head was a
// root of the last collection can kill old chunks, so the collection
// marks everything again and reclaims what only that branch held.
func TestGCFallsBackAfterRemoveBranch(t *testing.T) {
	db := openGCPath(t)
	gcMap(t, db, "doc", 3000)
	if err := db.Fork(tctx, "doc", "side"); err != nil {
		t.Fatal(err)
	}
	fresh := gcEditMap(t, db, "doc", "side", "key-00007", "side only")
	gcReads(t, db)
	side, err := db.Get(tctx, "doc", forkbase.WithBranch("side"))
	if err != nil {
		t.Fatal(err)
	}
	if _, reads := gcReads(t, db); reads != 0 {
		t.Fatalf("collection with no writes read %d chunks, want 0", reads)
	}
	if err := db.RemoveBranch(tctx, "doc", "side"); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Chunks
	st, reads := gcReads(t, db)
	after := db.Stats().Chunks
	if int64(st.Marked) != reads || st.Marked != after {
		t.Fatalf("after RemoveBranch: read %d, marked %d, %d chunks held; want a full mark of every live chunk", reads, st.Marked, after)
	}
	if int64(st.Reclaimed) != fresh || before-after != st.Reclaimed {
		t.Fatalf("reclaimed %d chunks (%d -> %d held), want the %d only side wrote", st.Reclaimed, before, after, fresh)
	}
	if db.ChunkStoreForTest().Has(side.UID()) {
		t.Fatal("removed branch's head survived the collection")
	}
}

// gcChecker runs one seeded script against three stores: a persistent
// store whose collections are young-only when they can be (inc), a
// persistent twin that forgets the collector's state before every
// collection (full), and an in-memory store, which cannot tell old from
// young (mem).
type gcChecker struct {
	t    *testing.T
	rng  *rand.Rand
	opts forkbase.Options
	dirs [2]string
	dbs  [3]*forkbase.DB // inc, full, mem

	// What the script knows: branches per key, uids pinned, and every
	// chunk id ever written, which the stores are compared over.
	branches map[string][]string
	pins     []pin
	seen     *store.LiveSet
	ids      []chunk.ID
	forks    int
	raw      int
}

type pin struct {
	key string
	uid forkbase.UID
}

var gcKeys = []string{"map0", "map1", "blob0", "blob1"}

func newGCChecker(t *testing.T, seed int64) *gcChecker {
	c := &gcChecker{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		// Small chunks and segments, so a few kilobytes make trees of
		// several levels and logs of many segments; a cache so that
		// every collection has cached entries to drop.
		opts:     forkbase.Options{ChunkSizeLog2: 8, SegmentSize: 8 << 10, CacheBytes: 1 << 20},
		branches: map[string][]string{},
		seen:     store.NewLiveSet(),
	}
	for i := range c.dirs {
		c.dirs[i] = t.TempDir()
	}
	c.open()
	c.dbs[2] = forkbase.Open(c.opts)
	t.Cleanup(func() {
		for _, db := range c.dbs {
			db.Close()
		}
	})
	return c
}

func (c *gcChecker) open() {
	for i, dir := range c.dirs {
		db, err := forkbase.OpenPath(dir, c.opts)
		if err != nil {
			c.t.Fatal(err)
		}
		c.dbs[i] = db
	}
}

// each applies op to every store; the three must agree on failure.
func (c *gcChecker) each(what string, op func(db *forkbase.DB) error) bool {
	c.t.Helper()
	var errs [3]error
	for i, db := range c.dbs {
		errs[i] = op(db)
	}
	for i := 1; i < 3; i++ {
		if (errs[i] == nil) != (errs[0] == nil) {
			c.t.Fatalf("%s: stores disagree: %v / %v / %v", what, errs[0], errs[1], errs[2])
		}
	}
	return errs[0] == nil
}

// learn records every chunk reachable from uid as one to compare.
func (c *gcChecker) learn(uid forkbase.UID) {
	c.t.Helper()
	record := func(ck *chunk.Chunk) ([]chunk.ID, error) {
		c.ids = append(c.ids, ck.ID())
		return types.ChunkRefs(ck)
	}
	if err := store.Mark(tctx, c.dbs[0].ChunkStoreForTest(), c.seen, []chunk.ID{uid}, record); err != nil {
		c.t.Fatalf("closure of %s: %v", uid.Short(), err)
	}
}

func (c *gcChecker) pick(xs []string) string { return xs[c.rng.Intn(len(xs))] }

func (c *gcChecker) payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + c.rng.Intn(8))
	}
	return b
}

func isMap(key string) bool { return key[0] == 'm' }

// put writes a fresh value of the key's type to a branch (master for a
// key with none).
func (c *gcChecker) put() {
	key := c.pick(gcKeys)
	branch := "master"
	if bs := c.branches[key]; len(bs) > 0 {
		branch = c.pick(bs)
	}
	// A value binds to the store it is first put in: build one per store.
	var value func() forkbase.Value
	if isMap(key) {
		var kvs [][2][]byte
		for i, n := 0, 20+c.rng.Intn(200); i < n; i++ {
			kvs = append(kvs, [2][]byte{[]byte(fmt.Sprintf("k%04d", c.rng.Intn(400))), c.payload(8 + c.rng.Intn(24))})
		}
		value = func() forkbase.Value {
			m := forkbase.NewMap()
			for _, kv := range kvs {
				m.Set(kv[0], kv[1])
			}
			return m
		}
	} else {
		data := c.payload(1 + c.rng.Intn(6<<10))
		value = func() forkbase.Value { return forkbase.NewBlob(data) }
	}
	c.commit("put", key, branch, func(db *forkbase.DB) (forkbase.UID, error) {
		return db.Put(tctx, key, value(), forkbase.WithBranch(branch))
	})
}

// edit changes a few Map keys or splices a Blob on an existing branch.
func (c *gcChecker) edit() {
	key, branch, ok := c.existing()
	if !ok {
		return
	}
	n := 1 + c.rng.Intn(4)
	sets := make([][2][]byte, n)
	for i := range sets {
		sets[i] = [2][]byte{[]byte(fmt.Sprintf("k%04d", c.rng.Intn(400))), c.payload(8 + c.rng.Intn(24))}
	}
	off, del, ins := c.rng.Uint64(), uint64(c.rng.Intn(64)), c.payload(c.rng.Intn(200))
	c.commit("edit", key, branch, func(db *forkbase.DB) (forkbase.UID, error) {
		o, err := db.Get(tctx, key, forkbase.WithBranch(branch))
		if err != nil {
			return forkbase.UID{}, err
		}
		v, err := db.Value(tctx, key, o)
		if err != nil {
			return forkbase.UID{}, err
		}
		if m, err := forkbase.AsMap(v); err == nil {
			for _, kv := range sets {
				if err := m.Set(kv[0], kv[1]); err != nil {
					return forkbase.UID{}, err
				}
			}
		} else if b, err := forkbase.AsBlob(v); err == nil {
			at := off % (b.Len() + 1)
			if err := b.Splice(at, min(del, b.Len()-at), ins); err != nil {
				return forkbase.UID{}, err
			}
		}
		return db.Put(tctx, key, v, forkbase.WithBranch(branch))
	})
}

func (c *gcChecker) commit(what, key, branch string, op func(db *forkbase.DB) (forkbase.UID, error)) {
	var uids [3]forkbase.UID
	i := 0
	if !c.each(what, func(db *forkbase.DB) error {
		uid, err := op(db)
		uids[i] = uid
		i++
		return err
	}) {
		return
	}
	if uids[0] != uids[1] || uids[0] != uids[2] {
		c.t.Fatalf("%s %s/%s: stores wrote different versions", what, key, branch)
	}
	if !contains(c.branches[key], branch) {
		c.branches[key] = append(c.branches[key], branch)
	}
	c.learn(uids[0])
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// existing picks a key and one of its branches, if any key has one.
func (c *gcChecker) existing() (key, branch string, ok bool) {
	var keys []string
	for _, k := range gcKeys {
		if len(c.branches[k]) > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "", "", false
	}
	key = c.pick(keys)
	return key, c.pick(c.branches[key]), true
}

func (c *gcChecker) fork() {
	key, from, ok := c.existing()
	if !ok {
		return
	}
	c.forks++
	to := fmt.Sprintf("f%d", c.forks)
	if c.each("fork", func(db *forkbase.DB) error {
		return db.Fork(tctx, key, to, forkbase.WithBranch(from))
	}) {
		c.branches[key] = append(c.branches[key], to)
	}
}

// merge merges one branch of a key into another. Blob merges and
// conflicting Map merges fail, the same way in every store.
func (c *gcChecker) merge() {
	key, src, ok := c.existing()
	if !ok || len(c.branches[key]) < 2 {
		return
	}
	tgt := c.pick(c.branches[key])
	if tgt == src {
		return
	}
	var uids [3]forkbase.UID
	i := 0
	if c.each("merge", func(db *forkbase.DB) error {
		uid, conflicts, err := db.Merge(tctx, key, tgt, forkbase.WithBranch(src))
		uids[i] = uid
		i++
		if err == nil && len(conflicts) > 0 {
			err = errors.New("conflicts")
		}
		return err
	}) {
		if uids[0] != uids[1] || uids[0] != uids[2] {
			c.t.Fatalf("merge %s: stores wrote different versions", key)
		}
		c.learn(uids[0])
	}
}

func (c *gcChecker) remove() {
	key, branch, ok := c.existing()
	if !ok {
		return
	}
	if c.each("remove", func(db *forkbase.DB) error {
		return db.RemoveBranch(tctx, key, branch)
	}) {
		bs := c.branches[key]
		for i, b := range bs {
			if b == branch {
				c.branches[key] = append(bs[:i:i], bs[i+1:]...)
				break
			}
		}
	}
}

// pinHead pins the head of a branch, or unpins an earlier pin. Only
// live versions are pinned: a store may still hold a collected version
// until its next collection, and a pin would make it a root there.
func (c *gcChecker) pinHead() {
	if len(c.pins) > 0 && c.rng.Intn(2) == 0 {
		i := c.rng.Intn(len(c.pins))
		p := c.pins[i]
		c.pins = append(c.pins[:i:i], c.pins[i+1:]...)
		c.each("unpin", func(db *forkbase.DB) error { return db.Unpin(tctx, p.key, p.uid) })
		return
	}
	key, branch, ok := c.existing()
	if !ok {
		return
	}
	o, err := c.dbs[0].Get(tctx, key, forkbase.WithBranch(branch))
	if err != nil {
		c.t.Fatal(err)
	}
	p := pin{key, o.UID()}
	if c.each("pin", func(db *forkbase.DB) error { return db.Pin(tctx, p.key, p.uid) }) {
		c.pins = append(c.pins, p)
	}
}

// askedIDs returns ids a chunk-sync Have might ask about: some the
// stores hold or held, and one none ever did.
func (c *gcChecker) askedIDs() []chunk.ID {
	ids := []chunk.ID{chunk.New(chunk.TypeBlob, c.payload(16)).ID()}
	for i := 0; i < 4 && len(c.ids) > 0; i++ {
		ids = append(ids, c.ids[c.rng.Intn(len(c.ids))])
	}
	return ids
}

func collectable(db *forkbase.DB) store.Collectable {
	col, _, ok := store.AsCollectable(db.ChunkStoreForTest())
	if !ok {
		panic("store not collectable")
	}
	return col
}

// have opens and closes a chunk-sync Have's protection window, as the
// server's Have handler does, outside any collection.
func (c *gcChecker) have() {
	ids := c.askedIDs()
	c.each("have", func(db *forkbase.DB) error {
		col := collectable(db)
		col.BeginGC()
		col.Protect(ids)
		col.EndGC()
		return nil
	})
}

// gc runs one collection in every store, the twin's after it forgot
// the last one, with during (if set) parked inside the root
// enumeration and given a cancel for that collection alone, and then
// compares the stores.
func (c *gcChecker) gc(what string, during func(db *forkbase.DB, cancel func()), after func(db *forkbase.DB)) {
	var stats [3]forkbase.GCStats
	i := 0
	ok := c.each(what, func(db *forkbase.DB) error {
		ctx, cancel := context.WithCancel(tctx)
		defer cancel()
		if i == 1 {
			db.ForgetGCForTest()
		}
		if during != nil {
			db.SetRootsHookForTest(func() { during(db, cancel) })
			defer db.SetRootsHookForTest(nil)
		}
		st, err := db.GC(ctx)
		stats[i] = st
		i++
		if after != nil {
			after(db)
		}
		return err
	})
	if !ok {
		return
	}
	inc, full := stats[0], stats[1]
	if inc.Reclaimed != full.Reclaimed || inc.ReclaimedBytes != full.ReclaimedBytes ||
		inc.Relocated != full.Relocated || inc.SegmentsCompacted != full.SegmentsCompacted {
		c.t.Fatalf("%s: young-only collection %+v, full %+v", what, inc, full)
	}
	c.compare(what)
}

// rawChunk is a chunk no version references.
func (c *gcChecker) rawChunk() *chunk.Chunk {
	c.raw++
	ck := chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("raw %d %x", c.raw, c.payload(32))))
	c.ids = append(c.ids, ck.ID())
	c.seen.Add(ck.ID())
	return ck
}

// collect runs one of the collection variants.
func (c *gcChecker) collect() {
	switch c.rng.Intn(5) {
	case 0:
		c.gc("gc", nil, nil)
	case 1:
		// A write racing the collection: protected, not marked, and
		// garbage by the next one.
		ck := c.rawChunk()
		c.gc("gc+write", func(db *forkbase.DB, _ func()) {
			if _, err := db.ChunkStoreForTest().Put(ck); err != nil {
				c.t.Error(err)
			}
		}, nil)
	case 2:
		// A Have inside the collection's window.
		ids := c.askedIDs()
		c.gc("gc+have", func(db *forkbase.DB, _ func()) {
			col := collectable(db)
			col.BeginGC()
			col.Protect(ids)
			col.EndGC()
		}, nil)
	case 3:
		// A Have that opens inside the collection and ends after it.
		ids := c.askedIDs()
		c.gc("gc+long have", func(db *forkbase.DB, _ func()) {
			col := collectable(db)
			col.BeginGC()
			col.Protect(ids)
		}, func(db *forkbase.DB) { collectable(db).EndGC() })
	case 4:
		// Cancelled inside its mark: the store must stay as it was,
		// and the next collection of each store full.
		c.gc("cancelled gc", func(_ *forkbase.DB, cancel func()) { cancel() }, nil)
	}
}

// reopen restarts the persistent stores and collects. Replay indexes
// again the records a sweep dropped from the index but left on disk, in
// both persistent stores alike; the collection takes them again, and
// only then do they match the in-memory store once more.
func (c *gcChecker) reopen() {
	for _, db := range c.dbs[:2] {
		if err := db.Close(); err != nil {
			c.t.Fatal(err)
		}
	}
	c.open()
	c.gc("reopen+gc", nil, nil)
}

// compare holds the three stores to the same chunks and bytes, and the
// two persistent ones to the same files.
func (c *gcChecker) compare(what string) {
	c.t.Helper()
	var st [3]forkbase.StoreStats
	for i, db := range c.dbs {
		st[i] = db.Stats()
	}
	for i := 1; i < 3; i++ {
		if st[i].Chunks != st[0].Chunks || st[i].Bytes != st[0].Bytes {
			c.t.Fatalf("%s: store %d holds %d chunks (%d bytes), the young-only store %d (%d)",
				what, i, st[i].Chunks, st[i].Bytes, st[0].Chunks, st[0].Bytes)
		}
	}
	for _, id := range c.ids {
		var has [3]bool
		for i, db := range c.dbs {
			has[i] = collectable(db).Has(id)
			if db.ChunkStoreForTest().Has(id) != has[i] {
				c.t.Fatalf("%s: store %d's cache disagrees with its store on %s", what, i, id.Short())
			}
		}
		if has[1] != has[0] || has[2] != has[0] {
			c.t.Fatalf("%s: chunk %s held: young-only %v, full %v, in-memory %v", what, id.Short(), has[0], has[1], has[2])
		}
	}
	if a, b := segmentSizes(c.t, c.dirs[0]), segmentSizes(c.t, c.dirs[1]); !reflect.DeepEqual(a, b) {
		c.t.Fatalf("%s: chunk logs differ:\nyoung-only %v\nfull       %v", what, a, b)
	}
}

// segmentSizes maps each chunk-log segment file to its size.
func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	out := make(map[string]int64, len(names))
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(n)] = fi.Size()
	}
	return out
}

// run plays steps random operations, collecting often.
func (c *gcChecker) run(steps int) {
	for s := 0; s < steps; s++ {
		switch r := c.rng.Intn(100); {
		case r < 22:
			c.put()
		case r < 42:
			c.edit()
		case r < 50:
			c.fork()
		case r < 56:
			c.merge()
		case r < 64:
			c.remove()
		case r < 70:
			c.pinHead()
		case r < 75:
			c.have()
		case r < 96:
			c.collect()
		default:
			c.reopen()
		}
	}
	c.gc("final gc", nil, nil)
}

// TestGCIncrementalMatchesFull: after every collection of a seeded
// script, a store whose collections are young-only where they can be
// holds the same chunks, the same bytes and the same chunk-log files
// as a twin that always marks everything, and the same chunks and
// bytes as an in-memory store.
func TestGCIncrementalMatchesFull(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			newGCChecker(t, int64(seed)).run(120)
		})
	}
}

func FuzzIncrementalGC(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed, uint8(60))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		newGCChecker(t, seed).run(int(steps))
	})
}
