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
		for _, window := range []int{1, 2, 4} {
			localA, localB := store.NewMemStore(), store.NewMemStore()
			sc.prep(t, localA)
			sc.prep(t, localB)
			stPipe, err := Pull(ctx, localA, server.fetch, tree.Root(), tree.Height(), PullConfig{Batch: 32, Window: window})
			if err != nil {
				t.Fatalf("%s window=%d: %v", sc.name, window, err)
			}
			stSync, err := pullLevelSync(ctx, localB, server.fetch, tree.Root(), tree.Height(), 32)
			if err != nil {
				t.Fatalf("%s levelsync: %v", sc.name, err)
			}
			if stPipe.ChunksFetched != stSync.ChunksFetched ||
				stPipe.BytesFetched != stSync.BytesFetched ||
				stPipe.ChunksLocal != stSync.ChunksLocal {
				t.Fatalf("%s window=%d: pipelined %+v vs levelsync %+v", sc.name, window, stPipe, stSync)
			}
			for _, pulled := range []*store.MemStore{localA, localB} {
				at := postree.Attach(pulled, postree.DefaultConfig(), postree.KindBlob, tree.Root(), tree.Count(), tree.Height())
				got, err := at.Bytes()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s window=%d: pulled tree does not reproduce the content", sc.name, window)
				}
			}
		}
	}
}

// Cancelling a pull mid-prefetch must stop the workers promptly, leak
// no goroutines, and leave the partial tree re-pullable.
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
	_, err := Pull(ctx, local, blocking, tree.Root(), tree.Height(), PullConfig{Batch: 8, Window: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pull returned %v", err)
	}
	cancel()

	// Pull returns only after its workers exit; give the runtime a few
	// scheduling rounds to retire them before counting.
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

// First fetch error aborts the remaining window and surfaces; the
// store keeps whatever was admitted before the failure.
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
	_, err := Pull(context.Background(), local, flaky, tree.Root(), tree.Height(), PullConfig{Batch: 8, Window: 3})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the transport error", err)
	}
}

// lockstepEnd serves fetches in virtual time: every call takes exactly
// one tick, calls are answered oldest first, and none is answered until
// the walk under test has issued every call it is going to — its window
// is full, or it has asked for every id it can know of (the root, then
// the children of each index node delivered so far). ticks is then the
// number of round trips the walk waited for one after another, whatever
// the scheduler did.
type lockstepEnd struct {
	t     *testing.T
	s     *store.MemStore
	kids  map[chunk.ID][]chunk.ID // index node -> children
	calls chan *lockstepCall
}

type lockstepCall struct {
	ids    []chunk.ID
	issued int
	reply  chan [][]byte
}

func (l *lockstepEnd) fetch(ctx context.Context, ids []chunk.ID) ([][]byte, error) {
	c := &lockstepCall{ids: ids, reply: make(chan [][]byte, 1)}
	l.calls <- c
	return <-c.reply, nil
}

// serve answers calls until done closes; window is the most calls the
// walk keeps outstanding.
func (l *lockstepEnd) serve(root chunk.ID, window int, done <-chan struct{}) (calls, ticks int) {
	known := map[chunk.ID]bool{root: true}
	unrequested := 1
	var blocked []*lockstepCall
	for {
		for len(blocked) < window && unrequested > 0 {
			select {
			case c := <-l.calls:
				c.issued = ticks
				blocked = append(blocked, c)
				unrequested -= len(c.ids)
				calls++
			case <-time.After(10 * time.Second):
				l.t.Error("walk stalled with ids it knows of still unrequested")
				return
			}
		}
		if len(blocked) == 0 {
			<-done
			return
		}
		c := blocked[0]
		blocked = blocked[1:]
		ticks = max(ticks, c.issued+1)
		out := make([][]byte, len(c.ids))
		for i, id := range c.ids {
			ch, err := l.s.Get(id)
			if err != nil {
				l.t.Error(err)
				return
			}
			out[i] = ch.Bytes()
			for _, kid := range l.kids[id] {
				if !known[kid] {
					known[kid] = true
					unrequested++
				}
			}
		}
		c.reply <- out
	}
}

// TestPullFetchRounds is the cold-read claim as exact counts: over a
// height-3 tree, from an empty store, the pipelined walk asks in no
// more fetch calls than the level-synchronous reference and, with two
// batches in flight, waits for strictly fewer round trips one after
// another — the reference waits once per call.
func TestPullFetchRounds(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(14)).Read(data)
	origin := store.NewMemStore()
	tree := buildBlob(t, origin, data)
	if tree.Height() != 3 {
		t.Fatalf("tree height %d, the test wants 3", tree.Height())
	}
	kids := map[chunk.ID][]chunk.ID{}
	if err := tree.Walk(func(id chunk.ID, level int) (bool, error) {
		if level == 1 {
			return false, nil
		}
		c, err := origin.Get(id)
		if err != nil {
			return false, err
		}
		kids[id], err = postree.IndexChildIDs(c.Data())
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	const batch = 32
	run := func(window int, walk func(fetch FetchFunc) (Stats, error)) (calls, ticks int, st Stats) {
		end := &lockstepEnd{t: t, s: origin, kids: kids, calls: make(chan *lockstepCall)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			var err error
			if st, err = walk(end.fetch); err != nil {
				t.Error(err)
			}
		}()
		calls, ticks = end.serve(tree.Root(), window, done)
		<-done
		return calls, ticks, st
	}
	refCalls, refTicks, refStats := run(1, func(fetch FetchFunc) (Stats, error) {
		return pullLevelSync(ctx, store.NewMemStore(), fetch, tree.Root(), tree.Height(), batch)
	})
	calls, ticks, st := run(2, func(fetch FetchFunc) (Stats, error) {
		return Pull(ctx, store.NewMemStore(), fetch, tree.Root(), tree.Height(), PullConfig{Batch: batch, Window: 2})
	})
	if t.Failed() {
		return
	}
	if st != refStats {
		t.Fatalf("pipelined moved %+v, reference %+v", st, refStats)
	}
	if refTicks != refCalls {
		t.Fatalf("reference waited %d round trips for %d calls; it has one call outstanding at a time", refTicks, refCalls)
	}
	if calls > refCalls {
		t.Fatalf("pipelined pull issued %d fetch calls, level-sync reference %d", calls, refCalls)
	}
	if ticks >= refTicks {
		t.Fatalf("pipelined pull waited %d sequential round trips, level-sync reference %d", ticks, refTicks)
	}
	t.Logf("fetch calls %d (reference %d), sequential round trips %d (reference %d)", calls, refCalls, ticks, refTicks)
}
