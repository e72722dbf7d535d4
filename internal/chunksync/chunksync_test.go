package chunksync

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// remoteEnd adapts a MemStore into the three transport closures,
// counting what crosses the boundary.
type remoteEnd struct {
	s           *store.MemStore
	fetches     int
	sends       int
	fetchPrefix int // when >0, answer at most this many ids per fetch
}

func (r *remoteEnd) have(_ context.Context, ids []chunk.ID) ([]bool, error) {
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = r.s.Has(id)
	}
	return out, nil
}

func (r *remoteEnd) fetch(_ context.Context, ids []chunk.ID) ([][]byte, error) {
	r.fetches++
	if r.fetchPrefix > 0 && len(ids) > r.fetchPrefix {
		ids = ids[:r.fetchPrefix]
	}
	out := make([][]byte, len(ids))
	for i, id := range ids {
		c, err := r.s.Get(id)
		if errors.Is(err, store.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[i] = c.Bytes()
	}
	return out, nil
}

func (r *remoteEnd) send(_ context.Context, chunks []*chunk.Chunk) error {
	r.sends++
	for _, c := range chunks {
		if _, err := r.s.Put(c); err != nil {
			return err
		}
	}
	return nil
}

// buildBlob persists data as a blob POS-Tree on s.
func buildBlob(t *testing.T, s store.Store, data []byte) *postree.Tree {
	t.Helper()
	b := postree.NewBuilder(s, postree.DefaultConfig(), postree.KindBlob)
	b.AppendBytes(data)
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// treeIDs lists a tree's node ids in walk order (none for a nil tree).
func treeIDs(t *testing.T, tree *postree.Tree) []chunk.ID {
	t.Helper()
	var ids []chunk.ID
	if tree == nil {
		return nil
	}
	if err := tree.Walk(func(id chunk.ID, _ int) (bool, error) {
		ids = append(ids, id)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestPullCompletesTree(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(1))
	data := make([]byte, 1<<20)
	rnd.Read(data)

	server := &remoteEnd{s: store.NewMemStore(), fetchPrefix: 7}
	tree := buildBlob(t, server.s, data)
	local := store.NewMemStore()

	st, err := Pull(ctx, local, server.fetch, tree.Root(), tree.Height(), PullConfig{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksFetched == 0 || st.BytesFetched == 0 {
		t.Fatalf("nothing fetched: %+v", st)
	}
	// Every tree chunk must now be local, and readable without the
	// remote end.
	attached := postree.Attach(local, postree.DefaultConfig(), postree.KindBlob, tree.Root(), tree.Count(), tree.Height())
	got, err := attached.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pulled tree does not reproduce the content")
	}

	// A second pull is free: everything is local.
	st2, err := Pull(ctx, local, server.fetch, tree.Root(), tree.Height(), PullConfig{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ChunksFetched != 0 {
		t.Fatalf("re-pull fetched %d chunks", st2.ChunksFetched)
	}
}

func TestPullAfterSmallEditFetchesOnlyDelta(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(2))
	data := make([]byte, 4<<20)
	rnd.Read(data)

	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, data)
	local := store.NewMemStore()
	if _, err := Pull(ctx, local, server.fetch, tree.Root(), tree.Height(), PullConfig{}); err != nil {
		t.Fatal(err)
	}

	// A 1% splice in the middle; the server-side edit shares all
	// untouched chunks with the original tree.
	edit := make([]byte, len(data)/100)
	rnd.Read(edit)
	edited, err := tree.SpliceBytes(uint64(len(data)/2), uint64(len(edit)), edit)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Pull(ctx, local, server.fetch, edited.Root(), edited.Height(), PullConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesFetched > int64(len(data))/10 {
		t.Fatalf("1%% edit re-pull moved %d of %d bytes (>10%%)", st.BytesFetched, len(data))
	}
	if st.ChunksFetched == 0 {
		t.Fatal("edit produced no new chunks to fetch")
	}
}

func TestPullVerifiesFetchedChunks(t *testing.T) {
	ctx := context.Background()
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, bytes.Repeat([]byte("forkbase"), 1<<12))

	// A transport that swaps in a valid chunk under the wrong id must
	// be caught by the id recomputation.
	evil := func(ctx context.Context, ids []chunk.ID) ([][]byte, error) {
		out, err := server.fetch(ctx, ids)
		if err != nil {
			return nil, err
		}
		for i := range out {
			if out[i] != nil {
				out[i] = chunk.New(chunk.TypeBlob, []byte("swapped")).Bytes()
			}
		}
		return out, nil
	}
	local := store.NewMemStore()
	if _, err := Pull(ctx, local, evil, tree.Root(), tree.Height(), PullConfig{}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("poisoned fetch admitted: %v", err)
	}

	// Garbage bytes (not even a decodable chunk) also cost the pull.
	garbage := func(ctx context.Context, ids []chunk.ID) ([][]byte, error) {
		out := make([][]byte, len(ids))
		for i := range out {
			out[i] = []byte{0xff, 0xfe}
		}
		return out, nil
	}
	if _, err := Pull(ctx, store.NewMemStore(), garbage, tree.Root(), tree.Height(), PullConfig{}); err == nil {
		t.Fatal("garbage fetch admitted")
	}
}

func TestMissingAndPushDelta(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(3))
	data := make([]byte, 2<<20)
	rnd.Read(data)

	// Client builds v1 locally, pushes everything; edits 1%, pushes
	// again — the second push must move only the delta.
	local := store.NewMemStore()
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, local, data)

	var st Stats
	ids := treeIDs(t, tree)
	missing, err := Missing(ctx, ids, server.have, 16, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) == 0 {
		t.Fatal("fresh server reported no missing chunks")
	}
	if err := Push(ctx, local, missing, server.send, 64<<10, &st); err != nil {
		t.Fatal(err)
	}
	firstBytes := st.BytesSent

	edit := make([]byte, len(data)/100)
	rnd.Read(edit)
	edited, err := tree.SpliceBytes(uint64(len(data)/3), uint64(len(edit)), edit)
	if err != nil {
		t.Fatal(err)
	}
	var st2 Stats
	missing2, err := Missing(ctx, treeIDs(t, edited), server.have, 0, &st2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Push(ctx, local, missing2, server.send, 0, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.ChunksSkipped == 0 {
		t.Fatal("negotiation found no shared chunks after a 1% edit")
	}
	if st2.BytesSent > firstBytes/10 {
		t.Fatalf("1%% edit re-push moved %d of %d bytes (>10%%)", st2.BytesSent, firstBytes)
	}
	// The pushed tree must be complete and readable on the server.
	attached := postree.Attach(server.s, postree.DefaultConfig(), postree.KindBlob, edited.Root(), edited.Count(), edited.Height())
	if err := Complete(attached, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPushBatchesBySize(t *testing.T) {
	ctx := context.Background()
	local := store.NewMemStore()
	tree := buildBlob(t, local, bytes.Repeat([]byte{7}, 1<<20))
	server := &remoteEnd{s: store.NewMemStore()}
	var st Stats
	if err := Push(ctx, local, treeIDs(t, tree), server.send, 8<<10, &st); err != nil {
		t.Fatal(err)
	}
	if server.sends < 2 {
		t.Fatalf("1 MiB push with 8 KiB batches used %d sends", server.sends)
	}
}

// TestPullSubtreesCompletesSiblingsTogether: a pull of several sibling
// subtrees — one held whole, one whose index node is held without its
// leaves, the rest absent — fetches exactly the missing chunks, and in
// the round trips of one subtree, not one set per sibling.
func TestPullSubtreesCompletesSiblingsTogether(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(4))
	data := make([]byte, 1<<20)
	rnd.Read(data)
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, data)
	if tree.Height() != 3 {
		t.Fatalf("height %d; the test is about index-node siblings", tree.Height())
	}
	root, err := server.s.Get(tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	kids, err := postree.IndexChildIDs(root.Data())
	if err != nil || len(kids) < 3 {
		t.Fatalf("root with %d children: %v", len(kids), err)
	}
	local := store.NewMemStore()
	hold := func(id chunk.ID) {
		c, err := server.s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := local.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	hold(tree.Root())
	hold(kids[1])
	first, err := server.s.Get(kids[0])
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := postree.IndexChildIDs(first.Data())
	if err != nil {
		t.Fatal(err)
	}
	hold(kids[0])
	for _, l := range leaves {
		hold(l)
	}
	whole := 1 + len(leaves)
	held := local.Stats().Chunks
	missing := len(treeIDs(t, tree)) - held

	st, err := PullSubtrees(ctx, local, server.fetch, kids, tree.Height()-1, PullConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksFetched != missing || local.Stats().Chunks != held+missing {
		t.Fatalf("fetched %d chunks, %d were missing", st.ChunksFetched, missing)
	}
	if st.ChunksLocal < whole+1 {
		t.Fatalf("found %d chunks local; the held subtree alone has %d", st.ChunksLocal, whole)
	}
	// The held index node's leaves and the absent index nodes share a
	// batch; the absent nodes' leaves make the second.
	if server.fetches != 2 {
		t.Fatalf("%d siblings took %d fetches; want 2, the levels below them", len(kids), server.fetches)
	}
	attached := postree.Attach(local, postree.DefaultConfig(), postree.KindBlob, tree.Root(), tree.Count(), tree.Height())
	if got, err := attached.Bytes(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the pulled tree does not read back: %v", err)
	}

	// A fetch that lies about one sibling costs the pull and admits
	// nothing under the id it lied about.
	lied := kids[len(kids)-1]
	evil := func(ctx context.Context, ids []chunk.ID) ([][]byte, error) {
		out, err := server.fetch(ctx, ids)
		for i, id := range ids[:len(out)] {
			if id == lied {
				out[i] = chunk.New(chunk.TypeUIndex, []byte("forged")).Bytes()
			}
		}
		return out, err
	}
	fresh := store.NewMemStore()
	if _, err := PullSubtrees(ctx, fresh, evil, kids, tree.Height()-1, PullConfig{}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("a forged sibling: %v, want ErrCorrupt", err)
	}
	if fresh.Has(lied) {
		t.Fatal("the forged chunk was admitted under the id it claimed")
	}
}
