package forkbase_test

// A chunk-synced Value is a lazy handle: the Value call costs one Want
// and never walks the tree, and reads fetch what they touch — a point
// read its one path, iteration its misses in one discovery pull per
// level. Counts, not timings: Wants and streamed bytes at the server,
// chunks held and reads made at the client.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/chunksync"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// readRig is a server over a store the test can see, and a chunk-sync
// client whose chunk store already holds an unrelated page — so its
// next cold Value is the ordinary one, not the deep Want of an empty
// store.
func readRig(t *testing.T) (*forkbase.DB, *store.MemStore, *forkbase.Server, *forkbase.RemoteStore) {
	t.Helper()
	ms := store.NewMemStore()
	db := forkbase.NewDBOn(ms, postree.DefaultConfig())
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	if _, err := db.Put(context.Background(), "warm", forkbase.NewBlob(randBytes(99, 8<<10))); err != nil {
		t.Fatal(err)
	}
	readDoc(t, rc, "warm")
	return db, ms, srv, rc
}

// wantTraffic reads the server's Want count and streamed chunk bytes.
func wantTraffic(t *testing.T, srv *forkbase.Server) (wants, streamed int64) {
	t.Helper()
	return serverCounter(t, srv, "forkbase_server_requests_total", `op="chunk_want"`),
		serverCounter(t, srv, "forkbase_server_chunksync_bytes_total", `op="stream"`)
}

// valueOf puts v under key on the server and returns the client's
// view of the version, with the version's tree in the server store.
func valueOf(t *testing.T, db *forkbase.DB, ms *store.MemStore, rc *forkbase.RemoteStore, key string, v forkbase.Value) (*forkbase.FObject, *postree.Tree) {
	t.Helper()
	ctx := context.Background()
	if _, err := db.Put(ctx, key, v); err != nil {
		t.Fatal(err)
	}
	o, err := rc.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	return o, versionTree(t, ms, o)
}

// treeBytes sums the sizes of a tree's distinct nodes.
func treeBytes(nodes map[chunk.ID]*chunk.Chunk) int64 {
	var n int64
	for _, c := range nodes {
		n += int64(c.Size())
	}
	return n
}

// wholePullWants is what reading tr cost before a Value became a lazy
// handle: chunksync.Pull of the whole tree into a cache holding none
// of it, one Want per fetch call.
func wholePullWants(t *testing.T, ms *store.MemStore, tr *postree.Tree) int64 {
	t.Helper()
	var mu sync.Mutex
	calls := int64(0)
	fetch := func(_ context.Context, ids []chunk.ID) ([][]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		out := make([][]byte, len(ids))
		for i, id := range ids {
			c, err := ms.Get(id)
			if err != nil {
				return nil, err
			}
			out[i] = c.Bytes()
		}
		return out, nil
	}
	if _, err := chunksync.Pull(context.Background(), store.NewMemStore(), fetch, tr.Root(), tr.Height(), chunksync.PullConfig{}); err != nil {
		t.Fatal(err)
	}
	return calls
}

// pathStore records the chunks a read opens.
type pathStore struct {
	store.Store
	ids []chunk.ID
}

func (s *pathStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	s.ids = append(s.ids, id)
	return s.Store.Get(id)
}

// TestChunkSyncWarmValueWalksNothing: with the page cached, Value makes
// its one Want — carrying the user, for the access check — moves no
// chunk and opens no node of the tree; asking whether the root is held
// is all it does locally. Reading the page then makes no Want at all.
func TestChunkSyncWarmValueWalksNothing(t *testing.T) {
	ctx := context.Background()
	db, ms, srv, rc := readRig(t)
	data := randBytes(101, 256<<10)
	o, tr := valueOf(t, db, ms, rc, "doc", forkbase.NewBlob(data))
	readDoc(t, rc, "doc")
	reads := rc.CountChunkStoreReadsForTest()

	w0, s0 := wantTraffic(t, srv)
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	w1, s1 := wantTraffic(t, srv)
	if w1-w0 != 1 || s1-s0 != 0 {
		t.Fatalf("a warm Value made %d Wants and streamed %d bytes; want 1 and 0", w1-w0, s1-s0)
	}
	if g, h := reads.Gets.Load(), reads.Hases.Load(); g != 0 || h > 1 {
		t.Fatalf("a warm Value of a %d-node tree opened %d chunks and asked about %d; want none and the root", len(treeChunks(t, tr)), g, h)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Bytes(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm read: %v", err)
	}
	if w2, _ := wantTraffic(t, srv); w2 != w1 {
		t.Fatalf("reading a cached page made %d Wants", w2-w1)
	}
}

// TestChunkSyncColdReadMovesWhatTheWholePullDid: on a cache that holds
// something else, Value moves the root alone, and Value + Bytes moves
// every node of the tree exactly once — the chunks and bytes the
// whole-tree pull moved — in no more Wants than that pull made.
func TestChunkSyncColdReadMovesWhatTheWholePullDid(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		size int
	}{{"Page256KiB", 256 << 10}, {"Blob4MiB", 4 << 20}} {
		t.Run(tc.name, func(t *testing.T) {
			db, ms, srv, rc := readRig(t)
			data := randBytes(int64(tc.size), tc.size)
			o, tr := valueOf(t, db, ms, rc, "doc", forkbase.NewBlob(data))
			nodes := treeChunks(t, tr)
			root := nodes[tr.Root()]
			bound := wholePullWants(t, ms, tr)
			held := rc.ChunkCacheStatsForTest()

			w0, s0 := wantTraffic(t, srv)
			v, err := rc.Value(ctx, "doc", o)
			if err != nil {
				t.Fatal(err)
			}
			w1, s1 := wantTraffic(t, srv)
			if w1-w0 != 1 || s1-s0 != int64(root.Size()) {
				t.Fatalf("a cold Value made %d Wants and streamed %d bytes; want 1 and the root's %d", w1-w0, s1-s0, root.Size())
			}
			b, err := forkbase.AsBlob(v)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := b.Bytes(); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("cold read: %v", err)
			}
			w2, s2 := wantTraffic(t, srv)
			now := rc.ChunkCacheStatsForTest()
			if s2-s0 != treeBytes(nodes) || now.Chunks-held.Chunks != len(nodes) || now.Bytes-held.Bytes != treeBytes(nodes) {
				t.Fatalf("the read streamed %d bytes and the client gained %d chunks, %d bytes; the tree is %d nodes, %d bytes",
					s2-s0, now.Chunks-held.Chunks, now.Bytes-held.Bytes, len(nodes), treeBytes(nodes))
			}
			if w2-w0 > bound {
				t.Fatalf("Value + Bytes made %d Wants; the whole-tree pull made %d", w2-w0, bound)
			}
			t.Logf("%d nodes, height %d: %d Wants (whole-tree pull %d)", len(nodes), tr.Height(), w2-w0, bound)
		})
	}
}

// TestChunkSyncPointReadFetchesItsPath: a cold Value and an 8-byte
// ReadAt move the chunks on one root-to-leaf path — one per level, in a
// Want each — and nothing else.
func TestChunkSyncPointReadFetchesItsPath(t *testing.T) {
	ctx := context.Background()
	db, ms, srv, rc := readRig(t)
	data := randBytes(102, 1<<20)
	o, tr := valueOf(t, db, ms, rc, "doc", forkbase.NewBlob(data))
	const off = 700_001
	path := &pathStore{Store: ms}
	if _, err := postree.Attach(path, postree.DefaultConfig(), postree.KindBlob, tr.Root(), tr.Count(), tr.Height()).ReadAt(make([]byte, 8), off); err != nil {
		t.Fatal(err)
	}
	var pathBytes int64
	for _, id := range path.ids {
		c, _ := ms.Get(id)
		pathBytes += int64(c.Size())
	}
	held := rc.ChunkCacheStatsForTest()

	w0, s0 := wantTraffic(t, srv)
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := b.ReadAt(got, off); err != nil || !bytes.Equal(got, data[off:off+8]) {
		t.Fatalf("ReadAt: %v", err)
	}
	w1, s1 := wantTraffic(t, srv)
	if len(path.ids) != tr.Height() || w1-w0 != int64(tr.Height()) || s1-s0 != pathBytes {
		t.Fatalf("a height-%d read made %d Wants and streamed %d bytes; its path is %d chunks, %d bytes",
			tr.Height(), w1-w0, s1-s0, len(path.ids), pathBytes)
	}
	if now := rc.ChunkCacheStatsForTest(); now.Chunks-held.Chunks != tr.Height() {
		t.Fatalf("the client gained %d chunks; want the %d on the path", now.Chunks-held.Chunks, tr.Height())
	}
}

// TestChunkSyncIterationBatchesItsMisses: a handle whose chunks left
// the cache reads back whole in at most height + 1 Wants — one
// discovery pull, a Want per level — not one Want per leaf, for a
// Blob's Bytes and a Map's Iter alike.
func TestChunkSyncIterationBatchesItsMisses(t *testing.T) {
	ctx := context.Background()
	db, ms, srv, rc := readRig(t)
	data := randBytes(103, 1<<20)
	ob, blobTree := valueOf(t, db, ms, rc, "blob", forkbase.NewBlob(data))
	m := forkbase.NewMap()
	for i := 0; i < 10_000; i++ {
		if err := m.Set([]byte(fmt.Sprintf("row%08d", i)), data[i*40:(i+1)*40]); err != nil {
			t.Fatal(err)
		}
	}
	om, mapTree := valueOf(t, db, ms, rc, "map", m)
	for _, tc := range []struct {
		key  string
		o    *forkbase.FObject
		tr   *postree.Tree
		read func(forkbase.Value) error
	}{
		{"blob", ob, blobTree, func(v forkbase.Value) error {
			b, err := forkbase.AsBlob(v)
			if err != nil {
				return err
			}
			got, err := b.Bytes()
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("content mismatch")
			}
			return err
		}},
		{"map", om, mapTree, func(v forkbase.Value) error {
			mv, err := forkbase.AsMap(v)
			if err != nil {
				return err
			}
			n := 0
			if err := mv.Iter(func(k, _ []byte) bool {
				n++
				return true
			}); err != nil {
				return err
			}
			if n != 10_000 {
				return fmt.Errorf("iterated %d of 10000 entries", n)
			}
			return nil
		}},
	} {
		v, err := rc.Value(ctx, tc.key, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		rc.DropChunkCacheForTest()
		w0, s0 := wantTraffic(t, srv)
		if err := tc.read(v); err != nil {
			t.Fatalf("%s read after cache loss: %v", tc.key, err)
		}
		w1, s1 := wantTraffic(t, srv)
		nodes := treeChunks(t, tc.tr)
		if w1-w0 > int64(tc.tr.Height()+1) || s1-s0 != treeBytes(nodes) {
			t.Fatalf("%s: reading a %d-node tree of height %d made %d Wants and streamed %d bytes; want at most %d Wants, each of its %d bytes once",
				tc.key, len(nodes), tc.tr.Height(), w1-w0, s1-s0, tc.tr.Height()+1, treeBytes(nodes))
		}
	}
}

// TestChunkSyncPointReadThenIterationFetchesOnce: on a cold handle, a
// ReadAt fetches its path and the Bytes after it fills the rest around
// that path — every chunk of the tree crosses the wire once.
func TestChunkSyncPointReadThenIterationFetchesOnce(t *testing.T) {
	ctx := context.Background()
	db, ms, srv, rc := readRig(t)
	data := randBytes(104, 1<<20)
	o, tr := valueOf(t, db, ms, rc, "doc", forkbase.NewBlob(data))
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	rc.DropChunkCacheForTest()
	w0, s0 := wantTraffic(t, srv)
	if _, err := b.ReadAt(make([]byte, 8), 500_000); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Bytes(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Bytes after ReadAt: %v", err)
	}
	w1, s1 := wantTraffic(t, srv)
	nodes := treeChunks(t, tr)
	if s1-s0 != treeBytes(nodes) || rc.ChunkCacheStatsForTest().Chunks != len(nodes) {
		t.Fatalf("ReadAt + Bytes streamed %d bytes into %d chunks; the tree is %d nodes, %d bytes",
			s1-s0, rc.ChunkCacheStatsForTest().Chunks, len(nodes), treeBytes(nodes))
	}
	if max := int64(2*tr.Height() + 1); w1-w0 > max {
		t.Fatalf("ReadAt + Bytes made %d Wants; want at most %d", w1-w0, max)
	}
}

// TestChunkSyncHandleReadsWithinItsValueCall: a handle's reads fetch
// within the Value call's ctx. Once it is cancelled, a read that needs
// the network fails with context.Canceled and moves nothing, and the
// client goes on serving calls made with live contexts.
func TestChunkSyncHandleReadsWithinItsValueCall(t *testing.T) {
	ctx := context.Background()
	db, ms, srv, rc := readRig(t)
	data := randBytes(105, 512<<10)
	o, _ := valueOf(t, db, ms, rc, "doc", forkbase.NewBlob(data))
	vctx, cancel := context.WithCancel(ctx)
	v, err := rc.Value(vctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	w0, s0 := wantTraffic(t, srv)
	in := wireBytes(rc, "in")
	if _, err := b.Bytes(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Bytes after the Value call's ctx was cancelled: %v, want context.Canceled", err)
	}
	if _, err := b.ReadAt(make([]byte, 8), 300_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadAt after the Value call's ctx was cancelled: %v, want context.Canceled", err)
	}
	if w1, s1 := wantTraffic(t, srv); w1 != w0 || s1 != s0 || wireBytes(rc, "in") != in {
		t.Fatalf("cancelled reads made %d Wants and moved %d bytes", w1-w0, wireBytes(rc, "in")-in)
	}
	if got := readDoc(t, rc, "doc"); !bytes.Equal(got, data) {
		t.Fatal("a fresh Value after the cancelled reads reads back wrong")
	}
}

// TestChunkSyncHandleReadOfACollectedVersion: a handle reads from the
// server while its version is reachable there. After the branch is
// removed and collected, a read of a chunk the client does not hold
// fails with store.ErrNotFound — what an embedded handle over collected
// chunks reports.
func TestChunkSyncHandleReadOfACollectedVersion(t *testing.T) {
	ctx := context.Background()
	db, ms, _, rc := readRig(t)
	o, _ := valueOf(t, db, ms, rc, "doc", forkbase.NewBlob(randBytes(106, 512<<10)))
	unread, _ := valueOf(t, db, ms, rc, "other", forkbase.NewBlob(randBytes(107, 64<<10)))
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"doc", "other"} {
		if err := db.RemoveBranch(ctx, key, forkbase.DefaultBranch); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := db.GC(ctx); err != nil || st.Reclaimed == 0 {
		t.Fatalf("collection after removing the branches: %+v, %v", st, err)
	}
	if _, err := rc.Value(ctx, "other", unread); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Value of a collected version whose root the client lacks: %v, want store.ErrNotFound", err)
	}
	if _, err := b.ReadAt(make([]byte, 8), 300_000); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("ReadAt of a collected version: %v, want store.ErrNotFound", err)
	}
	if _, err := b.Bytes(); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Bytes of a collected version: %v, want store.ErrNotFound", err)
	}
}

// TestChunkSyncWideFillWants pins what a wide fill costs: a warm
// client reading an 8 MiB Blob it has never seen makes one Want for
// Value, then one per fetch batch of the fill — a batch for each index
// level below the root (each fits one) and one per 1 024 leaves. A
// smaller batch, or a second batch in flight, makes more.
func TestChunkSyncWideFillWants(t *testing.T) {
	ctx := context.Background()
	db, ms, _, rc := readRig(t)
	data := randBytes(106, 8<<20)
	o, tr := valueOf(t, db, ms, rc, "big", forkbase.NewBlob(data))
	perLevel := map[int]int{}
	if err := tr.Walk(func(_ chunk.ID, level int) (bool, error) {
		perLevel[level]++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	const batch = 1024
	want := int64(1 + (perLevel[1]+batch-1)/batch)
	for level := 2; level < tr.Height(); level++ {
		if perLevel[level] > batch {
			t.Fatalf("level %d holds %d nodes; the pin wants each index level in one batch", level, perLevel[level])
		}
		want++
	}
	if perLevel[1] <= batch {
		t.Fatalf("%d leaves fit one batch; the pin wants a leaf level wider than that", perLevel[1])
	}

	w0 := clientCalls(rc, "chunk_want")
	v, err := rc.Value(ctx, "big", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Bytes(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("wide fill: %v", err)
	}
	if got := clientCalls(rc, "chunk_want") - w0; got != want {
		t.Fatalf("reading %d leaves under a tree of height %d made %d Wants; want %d", perLevel[1], tr.Height(), got, want)
	}
}
