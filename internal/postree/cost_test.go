package postree

// What POS-tree operations cost, as exact chunk counts over the
// store's own Get/Put counters — counts, not timings, so the bounds
// cannot turn into flakes. The tree is the shape the dataset workload
// runs on: 100 000 entries under the default config, height 3.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

func costKey(i int) []byte { return []byte(fmt.Sprintf("row%08d", i)) }

// costTree builds the 100 000-entry Map and returns its index-node
// count.
func costTree(tb testing.TB) (*store.MemStore, *Tree, int) {
	tb.Helper()
	s := store.NewMemStore()
	b := NewBuilder(s, DefaultConfig(), KindMap)
	val := make([]byte, 40)
	for i := 0; i < 100_000; i++ {
		copy(val, costKey(i))
		b.Append(EncodeMapElem(costKey(i), val))
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	if tr.Height() < 3 {
		tb.Fatalf("height %d; the bounds below are about a tree with index levels to skip", tr.Height())
	}
	st, err := tr.TreeStats()
	if err != nil {
		tb.Fatal(err)
	}
	return s, tr, st.IndexNodes
}

// unshared returns the number of nodes in one of a and b and not in the
// other.
func unshared(tb testing.TB, a, b *Tree) int {
	tb.Helper()
	in := make(map[chunk.ID]int)
	for bit, tr := range []*Tree{a, b} {
		if err := tr.Walk(func(id chunk.ID, _ int) (bool, error) {
			in[id] |= 1 << bit
			return true, nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	n := 0
	for _, sides := range in {
		if sides != 3 {
			n++
		}
	}
	return n
}

// traffic runs f and returns the Get and Put calls it made on s.
func traffic(s *store.MemStore, f func()) (gets, puts int64) {
	before := s.Stats()
	f()
	after := s.Stats()
	return after.Gets - before.Gets, after.Puts - before.Puts
}

func TestGetCostsOnePath(t *testing.T) {
	s, tr, _ := costTree(t)
	key := costKey(61_803)
	gets, puts := traffic(s, func() {
		if _, ok, err := tr.Get(key); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	if gets != int64(tr.Height()) || puts != 0 {
		t.Fatalf("Get fetched %d chunks and put %d; want exactly the height, %d, and none", gets, puts, tr.Height())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := tr.Get(key); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("Get allocates %.0f objects per hit; want 0", allocs)
	}
	gets, _ = traffic(s, func() {
		if _, err := tr.GetAt(77_777); err != nil {
			t.Fatal(err)
		}
	})
	if gets != int64(tr.Height()) {
		t.Fatalf("GetAt fetched %d chunks; want exactly the height, %d", gets, tr.Height())
	}
}

func TestOneKeyEditCostsOnePath(t *testing.T) {
	s, tr, indexNodes := costTree(t)
	bound := int64(2*tr.Height() + 2)
	var next *Tree
	for _, i := range []int{0, 31_415, 61_803, 99_999} {
		gets, puts := traffic(s, func() {
			var err error
			if next, err = tr.MapSet(costKey(i), []byte("a value of another length")); err != nil {
				t.Fatal(err)
			}
		})
		if gets > bound || puts > bound {
			t.Fatalf("MapSet(%s) fetched %d and put %d chunks of a tree with %d index nodes; want at most 2*height+2 = %d of each",
				costKey(i), gets, puts, indexNodes, bound)
		}
		t.Logf("MapSet(%s): %d fetched, %d put (height %d, %d index nodes)", costKey(i), gets, puts, tr.Height(), indexNodes)

		// The streaming diff of the edit reads the nodes on the changed
		// paths, which one tree has and the other lacks, and nothing else:
		// no index node under a subtree the trees share. Where the edit
		// moved no leaf boundary, that is one path per side; the edit of
		// row00031415 joins its leaf to the next, so one leaf more.
		changed := unshared(t, tr, next)
		if i != 31_415 && changed != 2*tr.Height() {
			t.Fatalf("the edit of %s changed %d nodes; the test wants one with a path per side, 2*height = %d", costKey(i), changed, 2*tr.Height())
		}
		var ops []DiffOp
		gets, _ = traffic(s, func() {
			if err := EachDiff(context.Background(), tr, next, func(op DiffOp, kv KV) error {
				if string(kv.Key) != string(costKey(i)) {
					t.Fatalf("EachDiff of the edit of %s emitted %s", costKey(i), kv.Key)
				}
				ops = append(ops, op)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		if len(ops) != 1 || ops[0] != DiffModified {
			t.Fatalf("EachDiff of a one-key edit emitted %v; want one DiffModified", ops)
		}
		if gets != int64(changed) {
			t.Fatalf("EachDiff of the edit of %s fetched %d chunks; want exactly the %d nodes on the changed paths", costKey(i), gets, changed)
		}
		t.Logf("EachDiff of the edit of %s: %d fetched", costKey(i), gets)
	}

	// The full diff of the last edit reads the two changed paths, and the
	// index nodes of one side to count the leaves it skipped.
	var d *SortedDiff
	gets, _ := traffic(s, func() {
		var err error
		if d, err = DiffSorted(context.Background(), tr, next); err != nil {
			t.Fatal(err)
		}
	})
	if len(d.Modified) != 1 || len(d.Added)+len(d.Removed) != 0 {
		t.Fatalf("diff of a one-key edit: +%d -%d ~%d", len(d.Added), len(d.Removed), len(d.Modified))
	}
	if max := int64(4*tr.Height() + indexNodes); gets > max {
		t.Fatalf("DiffSorted fetched %d chunks; want at most 4*height + the %d index nodes = %d", gets, indexNodes, max)
	}
	t.Logf("DiffSorted: %d fetched; %d of %d leaves shared", gets, d.SharedLeaves, d.TotalLeaves)
}

// cancelAt is a store that cancels a context as its n-th Get returns.
type cancelAt struct {
	store.Store
	n, gets int
	cancel  context.CancelFunc
}

func (s *cancelAt) Get(id chunk.ID) (*chunk.Chunk, error) {
	if s.gets++; s.gets == s.n {
		s.cancel()
	}
	return s.Store.Get(id)
}

// TestEachDiffStopsAtCancel: the streaming diff observes ctx before
// every node it reads, index node or leaf, so cancelled before the call
// or after any of its reads but the last it returns context.Canceled
// and reads nothing more.
func TestEachDiffStopsAtCancel(t *testing.T) {
	s, tr, _ := costTree(t)
	var sets []KV
	for i := 0; i < 100_000; i += 997 {
		sets = append(sets, KV{Key: costKey(i), Value: []byte("another value")})
	}
	next, err := tr.MapApply(sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	none := func(DiffOp, KV) error { return nil }
	total, _ := traffic(s, func() {
		if err := EachDiff(context.Background(), tr, next, none); err != nil {
			t.Fatal(err)
		}
	})
	for n := 0; n < int(total); n++ {
		ctx, cancel := context.WithCancel(context.Background())
		if n == 0 {
			cancel()
		}
		cs := &cancelAt{Store: s, n: n, cancel: cancel}
		a, b := *tr, *next
		a.s, b.s = cs, cs
		err := EachDiff(ctx, &a, &b, none)
		cancel()
		if !errors.Is(err, context.Canceled) || cs.gets != n {
			t.Fatalf("EachDiff cancelled at read %d of %d returned %v after %d reads; want context.Canceled and no read after the cancel",
				n, total, err, cs.gets)
		}
	}
	t.Logf("cancelled at each of the %d reads of a %d-key diff", total, len(sets))
}

// TestWalkCostsWhatItOpens: a walk reads exactly the index nodes its
// callback opens — all of them when it opens all, one when it stops
// below the root — visits every level before the next, and reports
// leaves without reading any.
func TestWalkCostsWhatItOpens(t *testing.T) {
	s, tr, indexNodes := costTree(t)
	st, err := tr.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	visited, last := 0, tr.Height()
	gets, _ := traffic(s, func() {
		if err := tr.Walk(func(_ chunk.ID, level int) (bool, error) {
			if level > last || level < 1 {
				t.Fatalf("level %d visited after level %d", level, last)
			}
			visited, last = visited+1, level
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if visited != st.Leaves+indexNodes || gets != int64(indexNodes) {
		t.Fatalf("full walk visited %d nodes and read %d; want %d visited, the %d index nodes read",
			visited, gets, st.Leaves+indexNodes, indexNodes)
	}
	below := 0
	gets, _ = traffic(s, func() {
		if err := tr.Walk(func(_ chunk.ID, level int) (bool, error) {
			if level < tr.Height()-1 {
				t.Fatalf("walk visited level %d under a node it was told not to open", level)
			}
			if level == tr.Height()-1 {
				below++
			}
			return level == tr.Height(), nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if gets != 1 || below == 0 {
		t.Fatalf("walk opening only the root read %d chunks and saw %d children; want 1 read", gets, below)
	}
}

// TestBytesReadsEachNodeOnceAndCopiesOnce: materializing a 256 KiB page
// reads every node of its tree once, and copies the leaves into one
// result allocated without being zeroed first (bytes.Join). What it
// allocates is pinned: the iterator's cursor stack, the slice of leaf
// references as it grows, and the result — nothing per leaf, and one
// buffer of the page's size rather than a cleared one.
func TestBytesReadsEachNodeOnceAndCopiesOnce(t *testing.T) {
	s := store.NewMemStore()
	b := NewBuilder(s, DefaultConfig(), KindBlob)
	b.AppendBytes(randBytes(256<<10, 7))
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 || st.Leaves != 67 {
		t.Fatalf("height %d, %d leaves; the pinned count below is for the seeded page of height 3 and 67 leaves", tr.Height(), st.Leaves)
	}
	gets, _ := traffic(s, func() {
		if _, err := tr.Bytes(); err != nil {
			t.Fatal(err)
		}
	})
	if want := int64(st.Leaves + st.IndexNodes); gets != want {
		t.Fatalf("Bytes read %d chunks; the tree has %d nodes", gets, want)
	}
	const pinned = 9 // cursor stack 1 + leaf references 7 (growing past 67) + result 1
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := tr.Bytes(); err != nil {
			t.Fatal(err)
		}
	}); allocs != pinned {
		t.Fatalf("Bytes allocates %.0f objects per call; pinned at %d", allocs, pinned)
	}
}
