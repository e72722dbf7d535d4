package postree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// foldValue is the value the fold tests sum: any function of the
// encoded element will do, so long as a wrong subtree shows in the sum.
func foldValue(e []byte) (int64, error) {
	return int64(len(e))<<8 | int64(e[len(e)-1]), nil
}

// iterSum is the oracle: the value summed over an element iteration.
func iterSum(tb testing.TB, tr *Tree) int64 {
	tb.Helper()
	var sum int64
	it := tr.Elems()
	for it.Next() {
		v, _ := foldValue(it.Elem())
		sum += v
	}
	if it.Err() != nil {
		tb.Fatal(it.Err())
	}
	return sum
}

// treeNodes returns the cids of every node of tr, read with Walk.
func treeNodes(tb testing.TB, tr *Tree) map[chunk.ID]bool {
	tb.Helper()
	nodes := make(map[chunk.ID]bool)
	if err := tr.Walk(func(id chunk.ID, _ int) (bool, error) {
		nodes[id] = true
		return true, nil
	}); err != nil {
		tb.Fatal(err)
	}
	return nodes
}

func foldKey(i int) []byte { return []byte(fmt.Sprintf("row%06d", i)) }

// foldVersions returns a seeded run of successive versions of one Map
// or List: each rewrites, inserts or deletes a few neighbouring
// elements of the one before it, as a branch of a table would.
func foldVersions(tb testing.TB, kind Kind, n, versions int, seed int64) []*Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(store.NewMemStore(), testConfig(), kind)
	for i := 0; i < n; i++ {
		if kind == KindMap {
			b.Append(EncodeMapElem(foldKey(i), []byte(fmt.Sprintf("v%d", rng.Int63()))))
		} else {
			b.Append(EncodeListElem([]byte(fmt.Sprintf("v%d", rng.Int63()))))
		}
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	out := []*Tree{tr}
	for len(out) < versions {
		at := rng.Intn(n)
		var next *Tree
		if kind == KindMap {
			var sets []KV
			var dels [][]byte
			for i := at; i < at+1+rng.Intn(8) && i < n; i++ {
				if rng.Intn(4) == 0 {
					dels = append(dels, foldKey(i))
				} else {
					sets = append(sets, KV{Key: foldKey(i), Value: []byte(fmt.Sprintf("w%d", rng.Int63()))})
				}
			}
			next, err = tr.MapApply(sets, dels)
		} else {
			pos := uint64(rng.Intn(int(tr.Count()) + 1))
			del := min(uint64(rng.Intn(4)), tr.Count()-pos)
			ins := make([][]byte, rng.Intn(5))
			for i := range ins {
				ins[i] = []byte(fmt.Sprintf("w%d", rng.Int63()))
			}
			next, err = tr.ListSplice(pos, del, ins)
		}
		if err != nil {
			tb.Fatal(err)
		}
		tr = next
		out = append(out, tr)
	}
	return out
}

// TestFoldEqualsAFullPass: one long-lived memo folding version after
// version — forward, then back through versions it has forgotten
// parts of — agrees with an element iteration and with a fresh memo on
// every version of a Map and of a List.
func TestFoldEqualsAFullPass(t *testing.T) {
	for _, kind := range []Kind{KindMap, KindList} {
		versions := foldVersions(t, kind, 3000, 60, 11)
		memo := NewMemo(kind, foldValue)
		check := func(i int) {
			want := iterSum(t, versions[i])
			got, err := memo.Fold(versions[i])
			if err != nil || got != want {
				t.Fatalf("%v version %d: long-lived memo folds %d, %v; a full pass sums %d", kind, i, got, err, want)
			}
			if fresh, err := NewMemo(kind, foldValue).Fold(versions[i]); err != nil || fresh != want {
				t.Fatalf("%v version %d: fresh memo folds %d, %v; a full pass sums %d", kind, i, fresh, err, want)
			}
		}
		for i := range versions {
			check(i)
		}
		for i := len(versions) - 1; i >= 0; i -= 7 {
			check(i)
		}
	}
}

// TestFoldOfEmptyTree: the empty tree sums to zero and reads nothing.
func TestFoldOfEmptyTree(t *testing.T) {
	got, err := NewMemo(KindMap, foldValue).Fold(Empty(store.NewMemStore(), testConfig(), KindMap))
	if err != nil || got != 0 {
		t.Fatalf("Fold(empty) = %d, %v", got, err)
	}
}

// TestFoldRefusesATreeOfAnotherKind: a memo's subtotals come from one
// value function over one kind's elements, so it folds no other kind.
func TestFoldRefusesATreeOfAnotherKind(t *testing.T) {
	list := foldVersions(t, KindList, 100, 1, 1)[0]
	if _, err := NewMemo(KindMap, foldValue).Fold(list); err == nil {
		t.Fatal("a Map memo folded a List tree")
	}
	blob := NewBuilder(store.NewMemStore(), testConfig(), KindBlob)
	blob.AppendBytes(randBytes(4096, 3))
	tr, err := blob.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMemo(KindBlob, foldValue).Fold(tr); err == nil {
		t.Fatal("a memo folded a Blob tree")
	}
}

// failOnceStore fails the first Get of one chunk.
type failOnceStore struct {
	*store.MemStore
	fail chunk.ID
}

var errSynthetic = errors.New("synthetic read failure")

func (s *failOnceStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	if id == s.fail {
		s.fail = chunk.NilID
		return nil, errSynthetic
	}
	return s.MemStore.Get(id)
}

// TestFoldRecordsNothingAFailureCovers: a fold that fails — a node it
// could not read, or a value it could not compute — leaves no subtotal
// of that node or of any node above it behind, so the same memo's next
// fold, with the failure gone, still sums right.
func TestFoldRecordsNothingAFailureCovers(t *testing.T) {
	s := &failOnceStore{MemStore: store.NewMemStore()}
	b := NewBuilder(s, testConfig(), KindMap)
	for i := 0; i < 3000; i++ {
		b.Append(EncodeMapElem(foldKey(i), []byte(fmt.Sprintf("v%d", i*7919))))
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d; the failure must sit under an index node below the root", tr.Height())
	}
	var leaves []chunk.ID
	if err := tr.Walk(func(id chunk.ID, level int) (bool, error) {
		if level == 1 {
			leaves = append(leaves, id)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	want := iterSum(t, tr)

	memo := NewMemo(KindMap, foldValue)
	s.fail = leaves[len(leaves)/2]
	if _, err := memo.Fold(tr); !errors.Is(err, errSynthetic) {
		t.Fatalf("fold over an unreadable leaf: %v", err)
	}
	if got, err := memo.Fold(tr); err != nil || got != want {
		t.Fatalf("after a failed read the memo folds %d, %v; want %d", got, err, want)
	}

	bad := foldKey(1234)
	failed := false
	memo = NewMemo(KindMap, func(e []byte) (int64, error) {
		if !failed && string(MapElemKey(e)) == string(bad) {
			failed = true
			return 0, errSynthetic
		}
		return foldValue(e)
	})
	if _, err := memo.Fold(tr); !errors.Is(err, errSynthetic) {
		t.Fatalf("fold over a failing value: %v", err)
	}
	if got, err := memo.Fold(tr); err != nil || got != want {
		t.Fatalf("after a failed value the memo folds %d, %v; want %d", got, err, want)
	}
}

// TestFoldMemoIsBounded: over 500 successive versions, each a small
// edit of the one before, the memo never holds more entries than the
// distinct nodes of the trees its last 2*memoAge folds walked — the
// bound its aging states — while a memo that never forgot would hold
// every node of every version.
func TestFoldMemoIsBounded(t *testing.T) {
	versions := foldVersions(t, KindMap, 2000, 500, 5)
	memo := NewMemo(KindMap, foldValue)
	var window []map[chunk.ID]bool   // the nodes of the trees of the last 2*memoAge folds
	recent := make(map[chunk.ID]int) // their union, with the number of trees holding each
	ever := make(map[chunk.ID]bool)
	most := 0
	for i, tr := range versions {
		if _, err := memo.Fold(tr); err != nil {
			t.Fatal(err)
		}
		nodes := treeNodes(t, tr)
		for id := range nodes {
			ever[id] = true
			recent[id]++
		}
		if window = append(window, nodes); len(window) > 2*memoAge {
			for id := range window[0] {
				if recent[id]--; recent[id] == 0 {
					delete(recent, id)
				}
			}
			window = window[1:]
		}
		if n := memo.entries(); n > len(recent) {
			t.Fatalf("after fold %d the memo holds %d entries; the trees of its last %d folds have %d nodes",
				i+1, n, len(window), len(recent))
		}
		most = max(most, memo.entries())
	}
	t.Logf("500 folds: memo peaked at %d entries; the versions have %d distinct nodes, the first alone %d",
		most, len(ever), len(treeNodes(t, versions[0])))
}

// readLog is a store that records which chunks are read.
type readLog struct {
	*store.MemStore
	reads map[chunk.ID]bool
}

func (s *readLog) Get(id chunk.ID) (*chunk.Chunk, error) {
	s.reads[id] = true
	return s.MemStore.Get(id)
}

// TestFoldKeepsWhatItHits: folding 300 branches of one master, each a
// small edit of it, never re-reads a subtree one of the last memoAge
// folds hit — however many ages the run spans. The subtrees checked
// are the children of each branch's root: every fold reads its new
// root and asks the memo for all of them.
func TestFoldKeepsWhatItHits(t *testing.T) {
	s := &readLog{MemStore: store.NewMemStore(), reads: map[chunk.ID]bool{}}
	b := NewBuilder(s, testConfig(), KindMap)
	for i := 0; i < 2000; i++ {
		b.Append(EncodeMapElem(foldKey(i), []byte(fmt.Sprintf("v%d", i*7919))))
	}
	master, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// top returns the children of a tree's root.
	top := func(tr *Tree) map[chunk.ID]bool {
		ids := map[chunk.ID]bool{}
		if err := tr.Walk(func(id chunk.ID, level int) (bool, error) {
			if level == tr.Height()-1 {
				ids[id] = true
			}
			return level == tr.Height(), nil
		}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	memo := NewMemo(KindMap, foldValue)
	if _, err := memo.Fold(master); err != nil {
		t.Fatal(err)
	}
	hit := []map[chunk.ID]bool{top(master)} // by the last memoAge folds
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		branch, err := master.MapSet(foldKey(rng.Intn(2000)), []byte(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want := iterSum(t, branch)
		s.reads = map[chunk.ID]bool{}
		if got, err := memo.Fold(branch); err != nil || got != want {
			t.Fatalf("branch %d: Fold = %d, %v; want %d", i, got, err, want)
		}
		for id := range s.reads {
			for _, h := range hit {
				if h[id] {
					t.Fatalf("branch %d: re-read %s, which one of the last %d folds hit", i, id.Short(), len(hit))
				}
			}
		}
		if hit = append(hit, top(branch)); len(hit) > memoAge {
			hit = hit[1:]
		}
	}
}
