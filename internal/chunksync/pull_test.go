package chunksync

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// pullLevelSync is the level-synchronous reference walk: one fetch
// batch outstanding at a time and a full barrier between tree levels,
// so a cold read pays one round trip per batch. Pull is compared
// against it for what moves (TestPullPipelinedMatchesLevelSync) and
// for how many round trips it waits (TestPullFetchRounds).
func pullLevelSync(ctx context.Context, local store.Store, fetch FetchFunc, root chunk.ID, height int, batch int) (Stats, error) {
	var st Stats
	if root.IsNil() {
		return st, nil
	}
	level := []chunk.ID{root}
	for h := height; h >= 1 && len(level) > 0; h-- {
		// Fetch the level's missing chunks. Duplicate ids (identical
		// content repeated in the tree) collapse to one fetch.
		var unique, missing []chunk.ID
		seen := make(map[chunk.ID]bool, len(level))
		for _, id := range level {
			if seen[id] {
				continue
			}
			seen[id] = true
			unique = append(unique, id)
			if local.Has(id) {
				st.ChunksLocal++
			} else {
				missing = append(missing, id)
			}
		}
		if err := fetchInto(ctx, local, fetch, missing, batch, &st); err != nil {
			return st, err
		}
		if h == 1 {
			break
		}
		// Expand the deduped set only: a duplicate index node's subtree
		// is already covered by its first occurrence.
		var next []chunk.ID
		for _, id := range unique {
			c, err := store.GetVerified(local, id)
			if err != nil {
				return st, err
			}
			kids, err := postree.IndexChildIDs(c.Data())
			if err != nil {
				return st, err
			}
			next = append(next, kids...)
		}
		level = next
	}
	return st, nil
}

// The pipelined walk and the level-synchronous baseline must agree on
// exactly which chunks move: same fetched set, same local-hit count,
// same bytes — from a cold cache, a warm cache, and a partially
// pulled one.
func TestPullPipelinedMatchesLevelSync(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(11))
	data := make([]byte, 3<<20)
	rnd.Read(data)
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, data)

	type scenario struct {
		name string
		prep func(t *testing.T, local store.Store)
	}
	scenarios := []scenario{
		{"cold", func(*testing.T, store.Store) {}},
		{"partial", func(t *testing.T, local store.Store) {
			// Seed every other tree chunk, index nodes included.
			ids := treeIDs(t, tree)
			for i := 0; i < len(ids); i += 2 {
				c, err := server.s.Get(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := local.Put(c); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, sc := range scenarios {
		localA, localB := store.NewMemStore(), store.NewMemStore()
		sc.prep(t, localA)
		sc.prep(t, localB)
		stPipe, err := Pull(ctx, localA, server.fetch, tree.Root(), tree.Height(), PullConfig{Batch: 32})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		stSync, err := pullLevelSync(ctx, localB, server.fetch, tree.Root(), tree.Height(), 32)
		if err != nil {
			t.Fatalf("%s levelsync: %v", sc.name, err)
		}
		if stPipe.ChunksFetched != stSync.ChunksFetched ||
			stPipe.BytesFetched != stSync.BytesFetched ||
			stPipe.ChunksLocal != stSync.ChunksLocal {
			t.Fatalf("%s: pipelined %+v vs levelsync %+v", sc.name, stPipe, stSync)
		}
		for _, pulled := range []*store.MemStore{localA, localB} {
			at := postree.Attach(pulled, postree.DefaultConfig(), postree.KindBlob, tree.Root(), tree.Count(), tree.Height())
			got, err := at.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: pulled tree does not reproduce the content", sc.name)
			}
		}
	}
}

// Cancelling a pull mid-way must stop it promptly, leak no
// goroutines, and leave the partial tree re-pullable.
func TestPullCancelMidPrefetch(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	data := make([]byte, 2<<20)
	rnd.Read(data)
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, data)
	local := store.NewMemStore()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	blocking := func(fctx context.Context, ids []chunk.ID) ([][]byte, error) {
		if calls.Add(1) == 3 {
			cancel() // third batch: pull the rug out
		}
		select {
		case <-fctx.Done():
			return nil, fctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if err := fctx.Err(); err != nil {
			return nil, err
		}
		return server.fetch(fctx, ids)
	}
	_, err := Pull(ctx, local, blocking, tree.Root(), tree.Height(), PullConfig{Batch: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pull returned %v", err)
	}
	cancel()

	// Give the runtime a few scheduling rounds to retire any goroutine
	// the pull left behind before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after cancelled pull", before, n)
	}

	// The interrupted pull left a partial tree; a fresh pull completes
	// it and the content reads back whole.
	st, err := Pull(context.Background(), local, server.fetch, tree.Root(), tree.Height(), PullConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := postree.Attach(local, postree.DefaultConfig(), postree.KindBlob, tree.Root(), tree.Count(), tree.Height())
	got, err := at.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("resumed pull does not reproduce the content")
	}
	_ = st
}

// A duplicate index node (identical content repeated in a large
// uniform object) must expand once, not once per occurrence: the old
// level walk re-expanded duplicates, inflating every level below
// geometrically. Uniform data makes every leaf — and therefore most
// index nodes — identical, so the local Get count during a warm
// re-pull bounds the expansion work directly.
func TestPullExpandsDuplicateIndexOnce(t *testing.T) {
	ctx := context.Background()
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, make([]byte, 8<<20)) // zeros: maximal duplication
	local := store.NewMemStore()
	if _, err := Pull(ctx, local, server.fetch, tree.Root(), tree.Height(), PullConfig{}); err != nil {
		t.Fatal(err)
	}
	unique := int64(local.Stats().Chunks)

	gets0 := local.Stats().Gets
	if _, err := Pull(ctx, local, server.fetch, tree.Root(), tree.Height(), PullConfig{}); err != nil {
		t.Fatal(err)
	}
	if gets := local.Stats().Gets - gets0; gets > unique {
		t.Fatalf("warm re-pull read %d chunks for a tree of %d unique — duplicate index nodes re-expanded", gets, unique)
	}
}

// The first fetch error ends the pull and surfaces; the store keeps
// whatever was admitted before the failure.
func TestPullFirstErrorWins(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	data := make([]byte, 2<<20)
	rnd.Read(data)
	server := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, server.s, data)

	boom := errors.New("transport torn down")
	var calls atomic.Int32
	flaky := func(fctx context.Context, ids []chunk.ID) ([][]byte, error) {
		if calls.Add(1) > 2 {
			return nil, boom
		}
		return server.fetch(fctx, ids)
	}
	local := store.NewMemStore()
	_, err := Pull(context.Background(), local, flaky, tree.Root(), tree.Height(), PullConfig{Batch: 8})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the transport error", err)
	}
}

// TestPullFetchRounds pins the loop's cold read as exact counts over a
// height-3 tree at 32 ids a batch: one fetch call outstanding at a
// time, so every call is a round trip of its own; the calls the loop
// makes are exactly those of a FIFO worked out from the tree alone —
// a batch off the front per call, the children of each fetched index
// node queued behind — and no more than the level-synchronous
// reference makes at the same batch size.
func TestPullFetchRounds(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(14)).Read(data)
	origin := &remoteEnd{s: store.NewMemStore()}
	tree := buildBlob(t, origin.s, data)
	if tree.Height() != 3 {
		t.Fatalf("tree height %d, the test wants 3", tree.Height())
	}
	kids := map[chunk.ID][]chunk.ID{}
	if err := tree.Walk(func(id chunk.ID, level int) (bool, error) {
		if level == 1 {
			return false, nil
		}
		c, err := origin.s.Get(id)
		if err != nil {
			return false, err
		}
		kids[id], err = postree.IndexChildIDs(c.Data())
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	const batch = 32
	want := 0
	for q := []chunk.ID{tree.Root()}; len(q) > 0; want++ {
		n := min(batch, len(q))
		for _, id := range q[:n] {
			q = append(q, kids[id]...)
		}
		q = q[n:]
	}

	ref := &remoteEnd{s: origin.s}
	refStats, err := pullLevelSync(ctx, store.NewMemStore(), ref.fetch, tree.Root(), tree.Height(), batch)
	if err != nil {
		t.Fatal(err)
	}
	// Each call lingers a moment, so a walk that overlapped its calls
	// would be caught doing it.
	var outstanding atomic.Int32
	var overlapped atomic.Bool
	fetch := func(ctx context.Context, ids []chunk.ID) ([][]byte, error) {
		if outstanding.Add(1) > 1 {
			overlapped.Store(true)
		}
		defer outstanding.Add(-1)
		time.Sleep(time.Millisecond)
		return origin.fetch(ctx, ids)
	}
	st, err := Pull(ctx, store.NewMemStore(), fetch, tree.Root(), tree.Height(), PullConfig{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if st != refStats {
		t.Fatalf("pull moved %+v, reference %+v", st, refStats)
	}
	if overlapped.Load() {
		t.Fatal("pull kept two fetch calls outstanding at once; the loop keeps one")
	}
	if origin.fetches != want {
		t.Fatalf("pull made %d fetch calls (and waited as many round trips), the tree's FIFO %d", origin.fetches, want)
	}
	if origin.fetches > ref.fetches {
		t.Fatalf("pull made %d fetch calls, level-sync reference %d", origin.fetches, ref.fetches)
	}
	t.Logf("fetch calls = round trips %d (reference %d)", origin.fetches, ref.fetches)
}
