package chunksync

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// holeStore is a MemStore that can pretend not to hold some of its
// chunks — what a collection, an abandoned upload or a partly
// compacted segment leaves behind — and counts the reads it serves.
type holeStore struct {
	*store.MemStore
	hidden map[chunk.ID]bool
	reads  int
}

func newHoleStore() *holeStore {
	return &holeStore{MemStore: store.NewMemStore(), hidden: map[chunk.ID]bool{}}
}

func (s *holeStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	s.reads++
	if s.hidden[id] {
		return nil, fmt.Errorf("hole %s: %w", id.Short(), store.ErrNotFound)
	}
	return s.MemStore.Get(id)
}

func (s *holeStore) Has(id chunk.ID) bool {
	s.reads++
	return !s.hidden[id] && s.MemStore.Has(id)
}

// fullWalk is the oracle: the completeness check with no reference and
// no shared code — recursion over IndexChildIDs.
func fullWalk(s store.Store, id chunk.ID, level int) error {
	if level == 1 {
		if !s.Has(id) {
			return store.ErrNotFound
		}
		return nil
	}
	c, err := store.GetVerified(s, id)
	if err != nil {
		return err
	}
	kids, err := postree.IndexChildIDs(c.Data())
	if err != nil {
		return err
	}
	for _, kid := range kids {
		if err := fullWalk(s, kid, level-1); err != nil {
			return err
		}
	}
	return nil
}

func fullWalkTree(t *postree.Tree) error {
	if t.Root().IsNil() {
		return nil
	}
	return fullWalk(t.Store(), t.Root(), t.Height())
}

// smallCfg makes trees of height 4–6 out of a few kilobytes, so every
// level-matching case is met by a short edit script.
var smallCfg = postree.Config{LeafQ: 6, IndexR: 2}

func elem(rng *rand.Rand) []byte {
	b := make([]byte, 4+rng.Intn(12))
	rng.Read(b)
	return b
}

// buildKind builds a tree of n random elements of the given kind.
func buildKind(t *testing.T, s store.Store, kind postree.Kind, rng *rand.Rand, n int) *postree.Tree {
	t.Helper()
	b := postree.NewBuilder(s, smallCfg, kind)
	switch kind {
	case postree.KindBlob:
		data := make([]byte, n*8)
		rng.Read(data)
		b.AppendBytes(data)
	case postree.KindList:
		for i := 0; i < n; i++ {
			b.Append(postree.EncodeListElem(elem(rng)))
		}
	case postree.KindSet:
		for i := 0; i < n; i++ {
			b.Append(postree.EncodeListElem([]byte(fmt.Sprintf("e%06d", i*3))))
		}
	case postree.KindMap:
		for i := 0; i < n; i++ {
			b.Append(postree.EncodeMapElem([]byte(fmt.Sprintf("k%06d", i*3)), elem(rng)))
		}
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// editKind applies one random edit; every fifth one is wholesale (most
// of the value removed, or as much again added), which is what moves
// the height.
func editKind(t *testing.T, tr *postree.Tree, rng *rand.Rand, step int) *postree.Tree {
	t.Helper()
	big := step%5 == 4
	n := int(tr.Count())
	at := func() uint64 {
		if n == 0 {
			return 0
		}
		return uint64(rng.Intn(n))
	}
	var next *postree.Tree
	var err error
	switch tr.Kind() {
	case postree.KindBlob:
		off, del, ins := at(), uint64(rng.Intn(48)), make([]byte, rng.Intn(48))
		if big && n > 64 && rng.Intn(2) == 0 {
			off, del, ins = 32, uint64(n-64), nil
		} else if big {
			ins = make([]byte, 4000)
		}
		if off+del > uint64(n) {
			del = uint64(n) - off
		}
		rng.Read(ins)
		next, err = tr.SpliceBytes(off, del, ins)
	case postree.KindList:
		off, del := at(), uint64(rng.Intn(3))
		var ins [][]byte
		for i := rng.Intn(3); i > 0; i-- {
			ins = append(ins, elem(rng))
		}
		if big && n > 8 && rng.Intn(2) == 0 {
			off, del, ins = 2, uint64(n-4), nil
		} else if big {
			for i := 0; i < 400; i++ {
				ins = append(ins, elem(rng))
			}
		}
		if off+del > uint64(n) {
			del = uint64(n) - off
		}
		next, err = tr.ListSplice(off, del, ins)
	case postree.KindSet:
		var add, rem [][]byte
		k := 1 + rng.Intn(3)
		if big {
			k = 300
		}
		for i := 0; i < k; i++ {
			add = append(add, []byte(fmt.Sprintf("e%06d", rng.Intn(6000))))
			rem = append(rem, []byte(fmt.Sprintf("e%06d", rng.Intn(2000)*3)))
		}
		if next, err = tr.SetAdd(add...); err == nil && step%2 == 0 {
			next, err = next.SetRemove(rem...)
		}
	case postree.KindMap:
		var sets []postree.KV
		var dels [][]byte
		k := 1 + rng.Intn(3)
		if big {
			k = 300
		}
		for i := 0; i < k; i++ {
			sets = append(sets, postree.KV{Key: []byte(fmt.Sprintf("k%06d", rng.Intn(6000))), Value: elem(rng)})
			if step%2 == 0 {
				dels = append(dels, []byte(fmt.Sprintf("k%06d", rng.Intn(2000)*3)))
			}
		}
		next, err = tr.MapApply(sets, dels)
	}
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestCompletePrunedEqualsFullWalk is the soundness property: whatever
// tree is offered as the reference — the previous version, an old one,
// one of another height or another kind, the tree itself, none — and
// whichever chunk of the checked tree the store has lost, Complete
// fails exactly when the full walk fails. The one premise is the
// documented one: the reference itself is complete, so the lost chunk
// is never one of its nodes.
func TestCompletePrunedEqualsFullWalk(t *testing.T) {
	kinds := []postree.Kind{postree.KindBlob, postree.KindList, postree.KindSet, postree.KindMap}
	heights := map[int]bool{}
	for ki, kind := range kinds {
		rng := rand.New(rand.NewSource(int64(20 + ki)))
		s := newHoleStore()
		versions := []*postree.Tree{buildKind(t, s, kind, rng, 700)}
		for step := 0; step < 14; step++ {
			versions = append(versions, editKind(t, versions[len(versions)-1], rng, step))
		}
		refs := map[string]*postree.Tree{
			"none":       nil,
			"other kind": buildKind(t, s, kinds[(ki+1)%len(kinds)], rng, 500),
			"one leaf":   buildKind(t, s, kind, rng, 3),
			"unrelated":  buildKind(t, s, kind, rng, 2500),
			"empty":      postree.Empty(s, smallCfg, kind),
		}
		for i := 1; i < len(versions); i++ {
			cur := versions[i]
			heights[cur.Height()] = true
			refs["previous"], refs["first"], refs["itself"] = versions[i-1], versions[0], cur
			nodes := treeIDs(t, cur)
			names := make([]string, 0, len(refs))
			for name := range refs {
				names = append(names, name)
			}
			sort.Strings(names) // one rng: keep the draws reproducible
			for _, name := range names {
				ref := refs[name]
				if err := Complete(cur, ref); err != nil {
					t.Fatalf("%v v%d against %s: a complete tree failed: %v", kind, i, name, err)
				}
				inRef := map[chunk.ID]bool{}
				for _, id := range treeIDs(t, ref) {
					inRef[id] = true
				}
				lost := 0
				for _, pick := range rng.Perm(len(nodes)) {
					id := nodes[pick]
					if inRef[id] {
						continue
					}
					s.hidden[id] = true
					full, pruned := fullWalkTree(cur), Complete(cur, ref)
					delete(s.hidden, id)
					if full == nil {
						t.Fatalf("%v v%d: the oracle passed a tree without %s", kind, i, id.Short())
					}
					if pruned == nil {
						t.Fatalf("%v v%d (height %d) against %s (height %d): Complete passed a tree whose node %s (pick %d of %d) is not in the store",
							kind, i, cur.Height(), name, height(ref), id.Short(), pick, len(nodes))
					}
					if !errors.Is(pruned, store.ErrNotFound) {
						t.Fatalf("%v v%d against %s: %v does not wrap store.ErrNotFound", kind, i, name, pruned)
					}
					if lost++; lost == 12 {
						break
					}
				}
			}
		}
	}
	if len(heights) < 3 {
		t.Fatalf("the scripts met only heights %v; the property is about trees of differing height", heights)
	}
}

func height(tr *postree.Tree) int {
	if tr == nil {
		return 0
	}
	return tr.Height()
}

// TestCompleteCostsTheDelta: against the version it was edited from, a
// 128-byte splice of a height-3 blob is verified by reading the nodes
// the edit created and as many of the reference — no count here grows
// with the number of leaves.
func TestCompleteCostsTheDelta(t *testing.T) {
	s := newHoleStore()
	data := make([]byte, 4<<20)
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	old := buildBlob(t, s, data)
	if old.Height() < 3 {
		t.Fatalf("height %d; the test wants index levels to skip", old.Height())
	}
	ins := make([]byte, 128)
	rng.Read(ins)
	edited, err := old.SpliceBytes(1<<20+17, 128, ins)
	if err != nil {
		t.Fatal(err)
	}
	inOld := map[chunk.ID]bool{}
	for _, id := range treeIDs(t, old) {
		inOld[id] = true
	}
	all, fresh := treeIDs(t, edited), 0
	for _, id := range all {
		if !inOld[id] {
			fresh++
		}
	}
	s.reads = 0
	if err := Complete(edited, old); err != nil {
		t.Fatal(err)
	}
	pruned := s.reads
	s.reads = 0
	if err := Complete(edited, nil); err != nil {
		t.Fatal(err)
	}
	if full := s.reads; full != len(all) {
		t.Fatalf("the check without a reference made %d reads of a %d-node tree; want one each", full, len(all))
	}
	// Each new node is read (index) or probed (leaf) once, and no more
	// reference nodes are opened than new index nodes plus the height.
	if max := 2*fresh + edited.Height(); pruned < fresh || pruned > max {
		t.Fatalf("verifying a splice that made %d new nodes of %d cost %d reads; want between %d and %d",
			fresh, len(all), pruned, fresh, max)
	}
	t.Logf("%d nodes, %d new: %d reads against the old version, %d without", len(all), fresh, pruned, len(all))
}

// TestCompleteSpendsNoMoreOnTheReferenceThanOnTheTree: a reference
// that shares nothing is opened only as far as the budget goes.
func TestCompleteSpendsNoMoreOnTheReferenceThanOnTheTree(t *testing.T) {
	s := newHoleStore()
	rng := rand.New(rand.NewSource(5))
	small := buildKind(t, s, postree.KindBlob, rng, 60)
	huge := buildKind(t, s, postree.KindBlob, rng, 40_000)
	nodes := len(treeIDs(t, small))
	s.reads = 0
	if err := Complete(small, huge); err != nil {
		t.Fatal(err)
	}
	if max := 2*nodes + small.Height(); s.reads > max {
		t.Fatalf("checking a %d-node tree against an unrelated one of %d nodes cost %d reads; want at most %d",
			nodes, len(treeIDs(t, huge)), s.reads, max)
	}
}

// TestCompleteMatchesAtTheSameLevelOnly: a node proves a subtree of
// its own depth. Offered the reference's root one level higher than
// the reference has it, Complete must look under it like the full walk
// does (and find leaves where index nodes should be), not take it as
// proven.
func TestCompleteMatchesAtTheSameLevelOnly(t *testing.T) {
	s := newHoleStore()
	ref := buildKind(t, s, postree.KindBlob, rand.New(rand.NewSource(8)), 400)
	lifted := postree.Attach(s, smallCfg, postree.KindBlob, ref.Root(), ref.Count(), ref.Height()+1)
	if fullWalkTree(lifted) == nil {
		t.Fatal("the oracle passed a tree whose leaves stand where index nodes should")
	}
	if err := Complete(lifted, ref); err == nil {
		t.Fatal("Complete took a node for proven at a level the reference does not have it at")
	}
}
