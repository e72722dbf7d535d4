package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"forkbase/internal/branch"
	"forkbase/internal/merge"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

func newEngine() *Engine {
	return NewEngine(store.NewMemStore(), postree.Config{LeafQ: 8, IndexR: 3})
}

func TestGetOnUnknownKeyAndBranch(t *testing.T) {
	e := newEngine()
	if _, err := e.Get([]byte("nope"), "master"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("unknown key: %v", err)
	}
	if _, err := e.Put([]byte("k"), "master", types.String("v"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get([]byte("k"), "nope"); !errors.Is(err, branch.ErrBranchNotFound) {
		t.Fatalf("unknown branch: %v", err)
	}
}

func TestTrackRangeValidation(t *testing.T) {
	e := newEngine()
	uid, err := e.Put([]byte("k"), "master", types.String("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrackUID(context.Background(), uid, -1, 2); err == nil {
		t.Fatal("negative from accepted")
	}
	if _, err := e.TrackUID(context.Background(), uid, 3, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
	// Range beyond history is truncated, not an error.
	hist, err := e.TrackUID(context.Background(), uid, 0, 100)
	if err != nil || len(hist) != 1 {
		t.Fatalf("beyond history: %d %v", len(hist), err)
	}
	// Range entirely before the first version yields nothing.
	hist, err = e.TrackUID(context.Background(), uid, 5, 7)
	if err != nil || len(hist) != 0 {
		t.Fatalf("past the root: %d %v", len(hist), err)
	}
}

func TestPutBaseMissingBase(t *testing.T) {
	e := newEngine()
	var missing types.UID
	missing[0] = 0xff
	if _, err := e.PutBase([]byte("k"), missing, types.String("v"), nil); err == nil {
		t.Fatal("put against a missing base accepted")
	}
}

func TestForkUIDUnknownVersion(t *testing.T) {
	e := newEngine()
	var missing types.UID
	missing[5] = 1
	if err := e.ForkUID([]byte("k"), missing, "b"); err == nil {
		t.Fatal("fork at a missing version accepted")
	}
}

func TestMergeUntaggedNeedsTwo(t *testing.T) {
	e := newEngine()
	uid, _ := e.PutBase([]byte("k"), types.UID{}, types.String("v"), nil)
	if _, _, err := e.Merge(context.Background(), []byte("k"), "", "", []types.UID{uid}, nil, nil); err == nil {
		t.Fatal("single-input untagged merge accepted")
	}
}

func TestMergeUntaggedThreeWayFold(t *testing.T) {
	e := newEngine()
	mk := func(vals map[string]string, base types.UID) types.UID {
		m := types.NewMap()
		for k, v := range vals {
			m.Set([]byte(k), []byte(v))
		}
		uid, err := e.PutBase([]byte("k"), base, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return uid
	}
	base := mk(map[string]string{"shared": "x"}, types.UID{})
	u1 := mk(map[string]string{"shared": "x", "a": "1"}, base)
	u2 := mk(map[string]string{"shared": "x", "b": "2"}, base)
	u3 := mk(map[string]string{"shared": "x", "c": "3"}, base)
	merged, _, err := e.Merge(context.Background(), []byte("k"), "", "", []types.UID{u1, u2, u3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := e.GetUID(merged)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Value(o)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(*types.Map)
	for _, k := range []string{"shared", "a", "b", "c"} {
		if _, ok, _ := m.Get([]byte(k)); !ok {
			t.Fatalf("three-way fold lost %q", k)
		}
	}
	heads := e.ListUntaggedBranches([]byte("k"))
	if len(heads) != 1 || heads[0] != merged {
		t.Fatalf("UB-table after fold: %v", heads)
	}
}

func TestDiffTypeMismatch(t *testing.T) {
	e := newEngine()
	u1, _ := e.Put([]byte("a"), "master", types.String("s"), nil)
	u2, _ := e.Put([]byte("b"), "master", types.Int(1), nil)
	if _, err := e.Diff(context.Background(), u1, u2); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("type mismatch diff: %v", err)
	}
}

func TestDiffAllValueClasses(t *testing.T) {
	e := newEngine()
	// Primitive diff.
	p1, _ := e.Put([]byte("p"), "master", types.String("a"), nil)
	p2, _ := e.Put([]byte("p"), "master", types.String("a"), nil)
	d, err := e.Diff(context.Background(), p1, p2)
	if err != nil || !d.PrimitiveEqual {
		t.Fatalf("primitive diff: %+v %v", d, err)
	}
	// Unsorted (blob) diff.
	b1, _ := e.Put([]byte("b"), "master", types.NewBlob(make([]byte, 4096)), nil)
	b2, _ := e.Put([]byte("b"), "master", types.NewBlob(make([]byte, 8192)), nil)
	d, err = e.Diff(context.Background(), b1, b2)
	if err != nil || d.Unsorted == nil {
		t.Fatalf("blob diff: %+v %v", d, err)
	}
	// Sorted (set) diff.
	s1 := types.NewSet([]byte("x"))
	s2 := types.NewSet([]byte("x"), []byte("y"))
	u1, _ := e.Put([]byte("s"), "master", s1, nil)
	u2, _ := e.Put([]byte("s"), "master", s2, nil)
	d, err = e.Diff(context.Background(), u1, u2)
	if err != nil || d.Sorted == nil || len(d.Sorted.Added) != 1 {
		t.Fatalf("set diff: %+v %v", d, err)
	}
}

func TestListKeysOrdering(t *testing.T) {
	e := newEngine()
	for _, k := range []string{"zebra", "apple", "mango"} {
		e.Put([]byte(k), "master", types.String("v"), nil)
	}
	keys := e.ListKeys()
	if len(keys) != 3 || keys[0] != "apple" || keys[2] != "zebra" {
		t.Fatalf("keys: %v", keys)
	}
}

func TestMergeConflictDoesNotMoveHead(t *testing.T) {
	e := newEngine()
	e.Put([]byte("k"), "master", types.String("base"), nil)
	if err := e.Fork([]byte("k"), "master", "other"); err != nil {
		t.Fatal(err)
	}
	e.Put([]byte("k"), "master", types.String("left"), nil)
	e.Put([]byte("k"), "other", types.String("right"), nil)
	before, _ := e.Get([]byte("k"), "master")
	_, _, err := e.Merge(context.Background(), []byte("k"), "master", "other", nil, nil, nil)
	if !errors.Is(err, merge.ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	after, _ := e.Get([]byte("k"), "master")
	if before.UID() != after.UID() {
		t.Fatal("failed merge moved the branch head")
	}
}

func TestEngineManyKeysIndependentHistories(t *testing.T) {
	e := newEngine()
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		for v := 0; v <= i%5; v++ {
			if _, err := e.Put(key, "master", types.String(fmt.Sprintf("v%d", v)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		hist, err := e.Track(context.Background(), key, "master", 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != i%5+1 {
			t.Fatalf("key-%d history %d, want %d", i, len(hist), i%5+1)
		}
	}
}

// countdownCtx is a context whose Err starts failing after n calls:
// it deterministically cancels "mid-walk", which a real cancel racing
// a history traversal cannot do reliably.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestHistoryWalksHonourCtx proves the long walks — Track and the LCA
// search behind Merge — observe ctx between steps, not just at entry.
// The remote client's cancel-on-disconnect depends on this: a server
// goroutine stuck in a deep walk would otherwise run to completion
// long after the caller hung up.
func TestHistoryWalksHonourCtx(t *testing.T) {
	e := newEngine()
	const depth = 64
	var root types.UID
	for i := 0; i < depth; i++ {
		uid, err := e.Put([]byte("k"), "master", types.String(fmt.Sprintf("v%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			root = uid
		}
	}
	head, err := e.Get([]byte("k"), "master")
	if err != nil {
		t.Fatal(err)
	}
	// Track: cancel after a handful of loaded versions.
	ctx := &countdownCtx{Context: context.Background(), n: 5}
	if _, err := e.TrackUID(ctx, head.UID(), 0, depth); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk Track: %v", err)
	}
	// LCA: a branch forked at the root forces the ancestor search to
	// expand master's whole chain before the two frontiers meet.
	if err := e.ForkUID([]byte("k"), root, "side"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put([]byte("k"), "side", types.String("s"), nil); err != nil {
		t.Fatal(err)
	}
	side, err := e.Get([]byte("k"), "side")
	if err != nil {
		t.Fatal(err)
	}
	ctx = &countdownCtx{Context: context.Background(), n: 5}
	if _, err := e.LCA(ctx, head.UID(), side.UID()); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk LCA: %v", err)
	}
	// The merge entry points abort through the same search.
	ctx = &countdownCtx{Context: context.Background(), n: 5}
	if _, _, err := e.Merge(ctx, []byte("k"), "master", "side", nil, merge.ChooseB, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk Merge: %v", err)
	}
}

// TestDiffHonoursCtxMidWalk: the structural diff's unshared-leaf
// comparison observes ctx, not just the entry check — a large diff
// must abort when its remote caller disconnects.
func TestDiffHonoursCtxMidWalk(t *testing.T) {
	e := newEngine()
	m := types.NewMap()
	for i := 0; i < 2000; i++ {
		m.Set([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("a-%d", i)))
	}
	u1, err := e.Put([]byte("d"), "master", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := types.NewMap()
	for i := 0; i < 2000; i++ {
		// Every value differs: no leaf is shared, so the diff must
		// fetch leaves from both sides — the loop under test.
		m2.Set([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("b-%d", i)))
	}
	u2, err := e.Put([]byte("d"), "master", m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Diff(context.Background(), u1, u2); err != nil {
		t.Fatalf("uncancelled diff: %v", err)
	}
	ctx := &countdownCtx{Context: context.Background(), n: 5}
	if _, err := e.Diff(ctx, u1, u2); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk diff: %v", err)
	}
}

// TestPutBatchGroupCommit: on a journaled engine a batch of puts is
// one journal scope — one write-ahead barrier for all its keys, every
// head in the WAL by the time the call returns (a reopen that skips
// Close recovers them).
func TestPutBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir, store.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	barriers := 0
	opts := branch.JournalOptions{Barrier: func() error { barriers++; return fs.Flush() }}
	j, err := branch.OpenJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := postree.Config{LeafQ: 8, IndexR: 3}
	e := NewEngine(fs, cfg)
	e.Recover(j)

	var puts []BatchPut
	for i := 0; i < 40; i++ {
		puts = append(puts, BatchPut{Key: []byte(fmt.Sprintf("k%02d", i%25)), Branch: "master", Value: types.String(fmt.Sprintf("v%d", i))})
	}
	uids, err := e.PutBatch(context.Background(), puts)
	if err != nil {
		t.Fatal(err)
	}
	if barriers != 1 {
		t.Fatalf("PutBatch over 25 keys ran %d barriers, want 1", barriers)
	}

	// A second process opening the directory now — no Close, no
	// Compact here — finds every head the call returned.
	j2, err := branch.OpenJournal(dir, branch.JournalOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2 := NewEngine(fs, cfg)
	e2.Recover(j2)
	for i := 15; i < 40; i++ { // the last write of each key
		o, err := e2.Get(puts[i].Key, "master")
		if err != nil || o.UID() != uids[i] {
			t.Fatalf("recovered head of %s: %v, want put %d", puts[i].Key, err, i)
		}
	}
}

// TestMergeRacesPuts: merges of side into master run beside Puts to
// both branches. Each merge reads both heads under the key's lock, so
// its result derives first from the master head it replaces, and
// master's first-base history stays one chain holding every master
// write, Puts and merges alike.
func TestMergeRacesPuts(t *testing.T) {
	e := newEngine()
	ctx := context.Background()
	key := []byte("k")
	root, err := e.Put(key, "master", types.String("root"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fork(key, "master", "side"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	var mu sync.Mutex
	written := map[string]map[types.UID]bool{"master": {}, "side": {}}
	var merges []types.UID
	record := func(br string, uid types.UID) {
		mu.Lock()
		defer mu.Unlock()
		written[br][uid] = true
	}
	var wg sync.WaitGroup
	for _, br := range []string{"master", "side"} {
		wg.Add(1)
		go func(br string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				uid, err := e.Put(key, br, types.String(fmt.Sprintf("%s-%d", br, i)), nil)
				if err != nil {
					t.Error(err)
					return
				}
				record(br, uid)
			}
		}(br)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			uid, _, err := e.Merge(ctx, key, "master", "side", nil, merge.ChooseA, nil)
			if err != nil {
				t.Error(err)
				return
			}
			record("master", uid)
			merges = append(merges, uid)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Walk master's first bases back to the fork point. Every version on
	// the way is a master write and, versions being distinct, counting
	// them shows the walk meets every master write: a merge that
	// derived from any head but the one it replaced would drop a write.
	o, err := e.Get(key, "master")
	if err != nil {
		t.Fatal(err)
	}
	chain := 0
	for o.UID() != root {
		if !written["master"][o.UID()] || len(o.Bases) == 0 {
			t.Fatalf("master's history holds %s, which no master write made", o.UID().Short())
		}
		chain++
		if o, err = e.GetUID(o.Bases[0]); err != nil {
			t.Fatal(err)
		}
	}
	if chain != len(written["master"]) {
		t.Fatalf("master's first-base history holds %d writes; %d master writes were made", chain, len(written["master"]))
	}
	for _, uid := range merges {
		o, err := e.GetUID(uid)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Bases) != 2 || (o.Bases[1] != root && !written["side"][o.Bases[1]]) {
			t.Fatalf("merge %s derives from %v; want a master head, then a side head", uid.Short(), o.Bases)
		}
	}
}
