package merge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

type env struct {
	s   store.Store
	cfg postree.Config
}

func newEnv() *env {
	return &env{s: store.NewMemStore(), cfg: postree.Config{LeafQ: 8, IndexR: 3}}
}

func (e *env) save(t *testing.T, v types.Value, bases ...*types.FObject) *types.FObject {
	t.Helper()
	o, err := types.Save(e.s, e.cfg, []byte("k"), v, bases, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func (e *env) mapOf(t *testing.T, kvs map[string]string, bases ...*types.FObject) *types.FObject {
	t.Helper()
	m := types.NewMap()
	for k, v := range kvs {
		m.Set([]byte(k), []byte(v))
	}
	return e.save(t, m, bases...)
}

func TestLCALinear(t *testing.T) {
	e := newEnv()
	v0 := e.save(t, types.String("0"))
	v1 := e.save(t, types.String("1"), v0)
	v2 := e.save(t, types.String("2"), v1)
	got, err := LCA(context.Background(), e.s, v2.UID(), v1.UID())
	if err != nil {
		t.Fatal(err)
	}
	if got.UID() != v1.UID() {
		t.Fatalf("LCA of ancestor chain = %s, want v1", got.UID().Short())
	}
}

func TestLCAFork(t *testing.T) {
	e := newEnv()
	v0 := e.save(t, types.String("0"))
	v1 := e.save(t, types.String("1"), v0)
	a := e.save(t, types.String("a"), v1)
	a2 := e.save(t, types.String("a2"), a)
	b := e.save(t, types.String("b"), v1)
	got, err := LCA(context.Background(), e.s, a2.UID(), b.UID())
	if err != nil {
		t.Fatal(err)
	}
	if got.UID() != v1.UID() {
		t.Fatalf("LCA = %s, want fork point v1", got.UID().Short())
	}
	// Same version.
	self, err := LCA(context.Background(), e.s, a.UID(), a.UID())
	if err != nil || self.UID() != a.UID() {
		t.Fatalf("LCA(x,x): %v", err)
	}
}

func TestLCADisjoint(t *testing.T) {
	e := newEnv()
	a := e.save(t, types.String("a"))
	b := e.save(t, types.String("b"))
	got, err := LCA(context.Background(), e.s, a.UID(), b.UID())
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("LCA of disjoint histories should be nil")
	}
}

func TestLCAThroughMergeNode(t *testing.T) {
	e := newEnv()
	root := e.save(t, types.String("r"))
	a := e.save(t, types.String("a"), root)
	b := e.save(t, types.String("b"), root)
	m := e.save(t, types.String("m"), a, b) // merge node with two bases
	c := e.save(t, types.String("c"), b)
	got, err := LCA(context.Background(), e.s, m.UID(), c.UID())
	if err != nil {
		t.Fatal(err)
	}
	if got.UID() != b.UID() {
		t.Fatalf("LCA through merge node = %s, want b", got.UID().Short())
	}
}

func TestMergeMapDisjointChanges(t *testing.T) {
	e := newEnv()
	base := e.mapOf(t, map[string]string{"a": "1", "b": "2", "c": "3"})
	left := e.mapOf(t, map[string]string{"a": "1-left", "b": "2", "c": "3"}, base)
	right := e.mapOf(t, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}, base)

	merged, conflicts, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil)
	if err != nil {
		t.Fatalf("%v (conflicts %v)", err, conflicts)
	}
	m := merged.(*types.Map)
	for k, want := range map[string]string{"a": "1-left", "b": "2", "c": "3", "d": "4"} {
		got, ok, _ := m.Get([]byte(k))
		if !ok || string(got) != want {
			t.Fatalf("merged[%s] = %q ok=%v, want %q", k, got, ok, want)
		}
	}
}

func TestMergeMapDeleteVsUntouched(t *testing.T) {
	e := newEnv()
	base := e.mapOf(t, map[string]string{"a": "1", "b": "2"})
	left := e.mapOf(t, map[string]string{"b": "2"}, base) // deleted a
	right := e.mapOf(t, map[string]string{"a": "1", "b": "2", "c": "3"}, base)
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := merged.(*types.Map)
	if _, ok, _ := m.Get([]byte("a")); ok {
		t.Fatal("deletion lost in merge")
	}
	if v, ok, _ := m.Get([]byte("c")); !ok || string(v) != "3" {
		t.Fatal("addition lost in merge")
	}
}

func TestMergeMapConflict(t *testing.T) {
	e := newEnv()
	base := e.mapOf(t, map[string]string{"a": "1"})
	left := e.mapOf(t, map[string]string{"a": "left"}, base)
	right := e.mapOf(t, map[string]string{"a": "right"}, base)
	_, conflicts, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	if len(conflicts) != 1 || string(conflicts[0].Key) != "a" {
		t.Fatalf("conflicts: %+v", conflicts)
	}
	if string(conflicts[0].A) != "left" || string(conflicts[0].B) != "right" || string(conflicts[0].Base) != "1" {
		t.Fatalf("conflict sides wrong: %+v", conflicts[0])
	}
	// With a resolver the merge succeeds.
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, ChooseB)
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := merged.(*types.Map).Get([]byte("a"))
	if string(v) != "right" {
		t.Fatalf("resolved = %q", v)
	}
}

func TestMergeMapBothSidesSameChange(t *testing.T) {
	e := newEnv()
	base := e.mapOf(t, map[string]string{"a": "1"})
	left := e.mapOf(t, map[string]string{"a": "same"}, base)
	right := e.mapOf(t, map[string]string{"a": "same"}, base)
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil)
	if err != nil {
		t.Fatalf("identical changes conflicted: %v", err)
	}
	v, _, _ := merged.(*types.Map).Get([]byte("a"))
	if string(v) != "same" {
		t.Fatalf("merged = %q", v)
	}
}

func TestMergeSet(t *testing.T) {
	e := newEnv()
	mk := func(elems []string, bases ...*types.FObject) *types.FObject {
		s := types.NewSet()
		for _, el := range elems {
			s.Add([]byte(el))
		}
		return e.save(t, s, bases...)
	}
	base := mk([]string{"a", "b", "c"})
	left := mk([]string{"a", "b", "c", "d"}, base) // +d
	right := mk([]string{"a", "c"}, base)          // -b
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := merged.(*types.Set)
	for el, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		got, _ := set.Has([]byte(el))
		if got != want {
			t.Fatalf("merged set has %q = %v, want %v", el, got, want)
		}
	}
	// One-sided change: no conflict.
	l2 := mk([]string{"a", "b", "c", "x"}, base)
	if _, _, err = ThreeWay(context.Background(), e.s, e.cfg, base, l2, mk([]string{"a", "b", "c"}, base), nil); err != nil {
		t.Fatalf("one-sided set change conflicted: %v", err)
	}
}

func TestMergeSetAddRemoveConflict(t *testing.T) {
	e := newEnv()
	mk := func(elems []string, bases ...*types.FObject) *types.FObject {
		s := types.NewSet()
		for _, el := range elems {
			s.Add([]byte(el))
		}
		return e.save(t, s, bases...)
	}
	base := mk([]string{"a", "x"})
	left := mk([]string{"a"}, base)       // removed x
	right := mk([]string{"a", "x"}, base) // kept x — no change, no conflict
	if _, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil); err != nil {
		t.Fatalf("remove vs untouched conflicted: %v", err)
	}
	// The true conflict: one side removes x, the other re-adds it
	// after removal (both changed x's membership differently from a
	// shared base where x is absent).
	base2 := mk([]string{"a"})
	addX := mk([]string{"a", "x"}, base2)
	keep := mk([]string{"a"}, base2)
	if _, _, err := ThreeWay(context.Background(), e.s, e.cfg, base2, addX, keep, nil); err != nil {
		t.Fatalf("add vs untouched conflicted: %v", err)
	}
}

func TestMergeOpaqueStrings(t *testing.T) {
	e := newEnv()
	base := e.save(t, types.String("base"))
	same := e.save(t, types.String("base"), base)
	changed := e.save(t, types.String("changed"), base)

	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, same, changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.(types.String) != "changed" {
		t.Fatalf("merged = %q", merged)
	}
	// Both changed differently: conflict; Append resolver concatenates.
	l := e.save(t, types.String("L"), base)
	r := e.save(t, types.String("R"), base)
	_, _, err = ThreeWay(context.Background(), e.s, e.cfg, base, l, r, nil)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	merged, _, err = ThreeWay(context.Background(), e.s, e.cfg, base, l, r, Append)
	if err != nil {
		t.Fatal(err)
	}
	if merged.(types.String) != "LR" {
		t.Fatalf("append-resolved = %q", merged)
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	e := newEnv()
	a := e.save(t, types.String("s"))
	b := e.save(t, types.Int(1))
	_, conflicts, err := ThreeWay(context.Background(), e.s, e.cfg, nil, a, b, nil)
	if !errors.Is(err, ErrConflict) || len(conflicts) != 1 {
		t.Fatalf("type mismatch: %v %v", err, conflicts)
	}
}

func TestAggregateResolver(t *testing.T) {
	e := newEnv()
	base := e.save(t, types.Int(100))
	l := e.save(t, types.Int(110), base) // +10
	r := e.save(t, types.Int(95), base)  // -5
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, l, r, Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if merged.(types.Int) != 105 {
		t.Fatalf("aggregate = %d, want 105", merged)
	}
}

// TestMergeResolverNilDeletesKey: a resolver's nil answer to a Map
// conflict deletes the key, as Conflict's nil means absent; an empty,
// non-nil answer stores an empty value. Here one side deleted a and
// the other set it.
func TestMergeResolverNilDeletesKey(t *testing.T) {
	e := newEnv()
	base := e.mapOf(t, map[string]string{"a": "1", "b": "2"})
	deleted := e.mapOf(t, map[string]string{"b": "2"}, base)
	set := e.mapOf(t, map[string]string{"a": "x", "b": "2"}, base)
	empty := func(Conflict) ([]byte, bool) { return []byte{}, true }
	cases := []struct {
		name       string
		a, b       *types.FObject
		res        Resolver
		want       string
		wantAbsent bool
	}{
		{"ChooseA of the deletion", deleted, set, ChooseA, "", true},
		{"ChooseB of the deletion", set, deleted, ChooseB, "", true},
		{"ChooseA of the value", set, deleted, ChooseA, "x", false},
		{"Append", deleted, set, Append, "x", false},
		{"empty answer", deleted, set, empty, "", false},
	}
	for _, tc := range cases {
		merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, tc.a, tc.b, tc.res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := merged.(*types.Map)
		v, ok, err := m.Get([]byte("a"))
		if err != nil {
			t.Fatal(err)
		}
		wantLen := uint64(2)
		if tc.wantAbsent {
			wantLen = 1
		}
		if ok == tc.wantAbsent || string(v) != tc.want || m.Len() != wantLen {
			t.Errorf("%s: a = %q (present %v), %d keys; want %q (present %v), %d keys",
				tc.name, v, ok, m.Len(), tc.want, !tc.wantAbsent, wantLen)
		}
	}

	// The built-ins keep nil apart from a value.
	c := Conflict{Key: []byte("a"), Base: encodeInt(5), B: encodeInt(7)}
	if v, _ := ChooseA(c); v != nil {
		t.Errorf("ChooseA of a deletion = %q, want nil", v)
	}
	if v, _ := ChooseB(Conflict{A: c.B}); v != nil {
		t.Errorf("ChooseB of a deletion = %q, want nil", v)
	}
	if v, _ := Append(Conflict{B: []byte("x")}); string(v) != "x" {
		t.Errorf("Append of nil and x = %q, want x", v)
	}
	if v, ok := Aggregate(c); !ok || !bytes.Equal(v, encodeInt(2)) {
		t.Errorf("Aggregate of 5, nil, 7 = %v, want 5 + (0-5) + (7-5) = 2", v)
	}
}

func TestMergeMapNoBase(t *testing.T) {
	e := newEnv()
	left := e.mapOf(t, map[string]string{"a": "1"})
	right := e.mapOf(t, map[string]string{"b": "2"})
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, nil, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := merged.(*types.Map)
	if m.Len() != 2 {
		t.Fatalf("merged len %d", m.Len())
	}
}

func TestMergeLargeMapsSharedStructure(t *testing.T) {
	e := newEnv()
	kvs := make(map[string]string, 3000)
	for i := 0; i < 3000; i++ {
		kvs[fmt.Sprintf("key-%05d", i)] = fmt.Sprintf("val-%d", i)
	}
	base := e.mapOf(t, kvs)
	lm := make(map[string]string, len(kvs))
	rm := make(map[string]string, len(kvs))
	for k, v := range kvs {
		lm[k], rm[k] = v, v
	}
	lm["key-00010"] = "left-change"
	rm["key-02900"] = "right-change"
	left := e.mapOf(t, lm, base)
	right := e.mapOf(t, rm, base)
	merged, _, err := ThreeWay(context.Background(), e.s, e.cfg, base, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := merged.(*types.Map)
	if v, _, _ := m.Get([]byte("key-00010")); string(v) != "left-change" {
		t.Fatalf("left change lost: %q", v)
	}
	if v, _, _ := m.Get([]byte("key-02900")); string(v) != "right-change" {
		t.Fatalf("right change lost: %q", v)
	}
	if m.Len() != 3000 {
		t.Fatalf("len %d", m.Len())
	}
}

// readCounter is a store that counts the reads of each chunk.
type readCounter struct {
	*store.MemStore
	reads map[chunk.ID]int
}

func (s *readCounter) Get(id chunk.ID) (*chunk.Chunk, error) {
	s.reads[id]++
	return s.MemStore.Get(id)
}

// TestMergeMapDiffsCostTheChangedPaths: a three-way merge of a
// 100 000-entry Map edited at one key on each side reads, in its two
// diffs, the changed paths of each side — the base's path and the
// side's, once each — and no index node under a subtree a side shares
// with the base. Beside them it reads what applying the merged edit to
// the base reads.
func TestMergeMapDiffsCostTheChangedPaths(t *testing.T) {
	s := &readCounter{MemStore: store.NewMemStore(), reads: make(map[chunk.ID]int)}
	cfg := postree.DefaultConfig()
	key := func(i int) []byte { return []byte(fmt.Sprintf("row%08d", i)) }
	bld := postree.NewBuilder(s, cfg, postree.KindMap)
	for i := 0; i < 100_000; i++ {
		bld.Append(postree.EncodeMapElem(key(i), key(i)))
	}
	baseTree, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	edits := []postree.KV{{Key: key(0), Value: []byte("left")}, {Key: key(99_999), Value: []byte("right")}}
	var sides [2]*postree.Tree
	for i, kv := range edits {
		if sides[i], err = baseTree.MapSet(kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	save := func(tr *postree.Tree, bases ...*types.FObject) *types.FObject {
		o, err := types.Save(s, cfg, []byte("k"), types.AttachMap(tr), bases, nil)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	base := save(baseTree)
	left, right := save(sides[0], base), save(sides[1], base)

	nodes := func(tr *postree.Tree) map[chunk.ID]bool {
		in := make(map[chunk.ID]bool)
		if err := tr.Walk(func(id chunk.ID, _ int) (bool, error) {
			in[id] = true
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return in
	}
	inBase := nodes(baseTree)
	want := make(map[chunk.ID]int)
	diffReads := 0
	for _, side := range sides {
		inSide := nodes(side)
		for _, p := range [][2]map[chunk.ID]bool{{inBase, inSide}, {inSide, inBase}} {
			for id := range p[0] {
				if !p[1][id] {
					want[id]++
					diffReads++
				}
			}
		}
	}
	if diffReads != 4*baseTree.Height() {
		t.Fatalf("the two edits change %d nodes; the test wants one path per tree, 4*height = %d", diffReads, 4*baseTree.Height())
	}
	s.reads = make(map[chunk.ID]int)
	if _, err := baseTree.MapApply(edits, nil); err != nil {
		t.Fatal(err)
	}
	for id, n := range s.reads {
		want[id] += n
	}

	s.reads = make(map[chunk.ID]int)
	merged, _, err := ThreeWay(context.Background(), s, cfg, base, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := s.reads
	s.reads = make(map[chunk.ID]int)
	for _, kv := range edits {
		if v, ok, err := merged.(*types.Map).Get(kv.Key); err != nil || !ok || !bytes.Equal(v, kv.Value) {
			t.Fatalf("merged[%s] = %q, %v, %v; want %q", kv.Key, v, ok, err, kv.Value)
		}
	}
	for id, n := range got {
		if want[id] != n {
			t.Fatalf("ThreeWay read %s %d times; the changed paths and the apply read it %d times", id.Short(), n, want[id])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ThreeWay read %d distinct nodes; the changed paths and the apply read %d", len(got), len(want))
	}
}

// A merge reports its conflicts in key order, the same every time.
func TestMergeMapConflictsInKeyOrder(t *testing.T) {
	e := newEnv()
	base, left, right := map[string]string{}, map[string]string{}, map[string]string{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("key-%02d", i)
		base[k], left[k], right[k] = "base", "left", "right"
	}
	b := e.mapOf(t, base)
	l, r := e.mapOf(t, left, b), e.mapOf(t, right, b)
	for run := 0; run < 10; run++ {
		_, conflicts, err := ThreeWay(context.Background(), e.s, e.cfg, b, l, r, nil)
		if !errors.Is(err, ErrConflict) || len(conflicts) != 16 {
			t.Fatalf("run %d: %d conflicts, %v; want 16, ErrConflict", run, len(conflicts), err)
		}
		for i := 1; i < len(conflicts); i++ {
			if bytes.Compare(conflicts[i-1].Key, conflicts[i].Key) >= 0 {
				t.Fatalf("run %d: conflict %d is %q after %q", run, i, conflicts[i].Key, conflicts[i-1].Key)
			}
		}
	}
}

// corruptStore reads one chunk as corrupt.
type corruptStore struct {
	*store.MemStore
	bad chunk.ID
}

func (s *corruptStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	if id == s.bad {
		return nil, store.ErrCorrupt
	}
	return s.MemStore.Get(id)
}

// A conflicting Blob merge whose side cannot be read fails with the read
// error; a resolver never answers over content that was not read.
func TestMergeBlobReadErrorFails(t *testing.T) {
	s := &corruptStore{MemStore: store.NewMemStore()}
	e := &env{s: s, cfg: postree.Config{LeafQ: 8, IndexR: 3}}
	blob := func(fill byte, bases ...*types.FObject) *types.FObject {
		return e.save(t, types.NewBlob(bytes.Repeat([]byte{fill}, 4096)), bases...)
	}
	base := blob('b')
	a, b := blob('a', base), blob('c', base)
	av, err := a.Value(s, e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.bad = types.TreeOf(av).Root()
	v, conflicts, err := ThreeWay(context.Background(), s, e.cfg, base, a, b, ChooseA)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("ThreeWay over an unreadable side = %v, %v, %v; want ErrCorrupt", v, conflicts, err)
	}
}

// TestKeyedMergeMatchesModel merges seeded random Maps and Sets, both
// ways and also with no base, against a plain-map model of the per-key
// rule: a key one side changed takes that change, a key both changed
// the same way takes it, and a key changed differently is a conflict.
// Conflicts come in key order, a Set merge never conflicts, choosing a
// side does not depend on the argument order, and the merged tree is
// the one a fresh build of the model's result makes.
func TestKeyedMergeMatchesModel(t *testing.T) {
	ctx := context.Background()
	e := newEnv()
	rng := rand.New(rand.NewSource(7))
	const universe = 60
	// randomEdit changes each key of from with probability rate: it
	// removes the key or sets one of three values (always "" in a Set).
	randomEdit := func(from map[string]string, set bool, rate float64) map[string]string {
		out := make(map[string]string)
		for i := 0; i < universe; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, ok := from[k]
			if rng.Float64() < rate {
				v, ok = fmt.Sprintf("v%d", rng.Intn(3)), rng.Intn(2) == 0
			}
			if set {
				v = ""
			}
			if ok {
				out[k] = v
			}
		}
		return out
	}
	save := func(m map[string]string, set bool, bases ...*types.FObject) *types.FObject {
		if set {
			s := types.NewSet()
			for k := range m {
				s.Add([]byte(k))
			}
			return e.save(t, s, bases...)
		}
		return e.mapOf(t, m, bases...)
	}
	lookup := func(m map[string]string, k string) []byte {
		if v, ok := m[k]; ok {
			return []byte(v)
		}
		return nil
	}
	same := func(x, y []byte) bool { return (x == nil) == (y == nil) && bytes.Equal(x, y) }
	root := func(v types.Value) chunk.ID { return types.TreeOf(v).Root() }
	var clean, conflicting int // Map merges of each outcome
	for round := 0; round < 120; round++ {
		set := round%2 == 1
		rate := []float64{0.02, 0.1, 0.4}[round/2%3]
		var baseModel map[string]string
		var base *types.FObject
		models := [2]map[string]string{randomEdit(nil, set, rate), randomEdit(nil, set, rate)}
		if round/6%4 != 0 {
			baseModel = randomEdit(nil, set, 0.8)
			base = save(baseModel, set)
			models = [2]map[string]string{randomEdit(baseModel, set, rate), randomEdit(baseModel, set, rate)}
		}
		var sides [2]*types.FObject
		for i, m := range models {
			if base != nil {
				sides[i] = save(m, set, base)
			} else {
				sides[i] = save(m, set)
			}
		}
		for order := 0; order < 2; order++ {
			am, bm := models[order], models[1-order]
			a, b := sides[order], sides[1-order]
			want := make(map[string]string)
			var wantConflicts []Conflict
			for i := 0; i < universe; i++ {
				k := fmt.Sprintf("key-%03d", i)
				bv, av, rv := lookup(baseModel, k), lookup(am, k), lookup(bm, k)
				merged := av
				switch {
				case same(av, bv):
					merged = rv
				case same(rv, bv), same(av, rv):
				default:
					wantConflicts = append(wantConflicts, Conflict{Key: []byte(k), Base: bv, A: av, B: rv})
					continue
				}
				if merged != nil {
					want[k] = string(merged)
				}
			}
			if set && len(wantConflicts) > 0 {
				t.Fatalf("round %d: the model finds %d Set conflicts", round, len(wantConflicts))
			}
			v, conflicts, err := ThreeWay(ctx, e.s, e.cfg, base, a, b, nil)
			if !set && len(wantConflicts) > 0 {
				conflicting++
			} else if !set {
				clean++
			}
			if len(wantConflicts) > 0 {
				if !errors.Is(err, ErrConflict) || len(conflicts) != len(wantConflicts) {
					t.Fatalf("round %d order %d: %d conflicts, %v; want %d, ErrConflict", round, order, len(conflicts), err, len(wantConflicts))
				}
				for i, c := range conflicts {
					w := wantConflicts[i]
					if !bytes.Equal(c.Key, w.Key) || !same(c.Base, w.Base) || !same(c.A, w.A) || !same(c.B, w.B) {
						t.Fatalf("round %d order %d: conflict %d = %q base %q a %q b %q; want %q base %q a %q b %q",
							round, order, i, c.Key, c.Base, c.A, c.B, w.Key, w.Base, w.A, w.B)
					}
				}
			} else {
				if err != nil {
					t.Fatalf("round %d order %d (set %v): %v, conflicts %v", round, order, set, err, conflicts)
				}
				fresh, err := save(want, set).Value(e.s, e.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if root(v) != root(fresh) {
					t.Fatalf("round %d order %d: merged root %s, a fresh build of the model %s", round, order, root(v).Short(), root(fresh).Short())
				}
			}
			va, _, err := ThreeWay(ctx, e.s, e.cfg, base, a, b, ChooseA)
			if err != nil {
				t.Fatalf("round %d order %d: ChooseA: %v", round, order, err)
			}
			vb, _, err := ThreeWay(ctx, e.s, e.cfg, base, b, a, ChooseB)
			if err != nil {
				t.Fatalf("round %d order %d: ChooseB: %v", round, order, err)
			}
			if root(va) != root(vb) {
				t.Fatalf("round %d order %d: ThreeWay(a, b, ChooseA) = %s, ThreeWay(b, a, ChooseB) = %s", round, order, root(va).Short(), root(vb).Short())
			}
		}
	}
	if clean == 0 || conflicting == 0 {
		t.Fatalf("Map merges: %d clean, %d conflicting; the rounds should cover both", clean, conflicting)
	}
}
