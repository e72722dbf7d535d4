package postree

import (
	"context"
	"errors"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

func TestLoadMissingRoot(t *testing.T) {
	s := store.NewMemStore()
	var fake chunk.ID
	fake[0] = 0xab
	if _, err := Load(s, testConfig(), KindMap, fake); err == nil {
		t.Fatal("Load of a missing root succeeded")
	}
}

func TestAttachMatchesLoad(t *testing.T) {
	s := store.NewMemStore()
	tr := buildMap(t, s, randomKVs(800, 20))
	att := Attach(s, testConfig(), KindMap, tr.Root(), tr.Count(), tr.Height())
	if att.Count() != tr.Count() || att.Height() != tr.Height() {
		t.Fatal("Attach shape mismatch")
	}
	v1, ok1, err1 := tr.Get([]byte("key-00000001"))
	v2, ok2, err2 := att.Get([]byte("key-00000001"))
	if ok1 != ok2 || string(v1) != string(v2) || (err1 == nil) != (err2 == nil) {
		t.Fatal("Attach handle behaves differently from Load")
	}
}

func TestKindChecksOnWrongOperations(t *testing.T) {
	s := store.NewMemStore()
	m := buildMap(t, s, randomKVs(50, 21))
	if _, err := m.SpliceBytes(0, 0, []byte("x")); err == nil {
		t.Fatal("SpliceBytes on a Map succeeded")
	}
	if _, err := m.ListSplice(0, 0, nil); err == nil {
		t.Fatal("ListSplice on a Map succeeded")
	}
	if _, err := m.ReadAt(make([]byte, 4), 0); err == nil {
		t.Fatal("ReadAt on a Map succeeded")
	}
	if _, err := m.Bytes(); err == nil {
		t.Fatal("Bytes on a Map succeeded")
	}
	if _, err := m.SetAdd([]byte("e")); err == nil {
		t.Fatal("SetAdd on a Map succeeded")
	}
	b := buildBlob(t, s, randBytes(1024, 22))
	if _, _, err := b.Get([]byte("k")); err == nil {
		t.Fatal("Get on a Blob succeeded")
	}
	if _, err := b.GetAt(0); err == nil {
		t.Fatal("GetAt on a Blob succeeded")
	}
	if _, err := DiffSorted(context.Background(), b, b); err == nil {
		t.Fatal("DiffSorted on Blobs succeeded")
	}
	if _, err := DiffUnsorted(context.Background(), m, m); err == nil {
		t.Fatal("DiffUnsorted on Maps succeeded")
	}
}

func TestSpliceOutOfRange(t *testing.T) {
	s := store.NewMemStore()
	b := buildBlob(t, s, randBytes(1000, 23))
	if _, err := b.SpliceBytes(900, 200, nil); err == nil {
		t.Fatal("overlong delete succeeded")
	}
	if _, err := b.SpliceBytes(1001, 0, []byte("x")); err == nil {
		t.Fatal("append past end succeeded")
	}
	// Exactly at the end is an append and must work.
	b2, err := b.SpliceBytes(1000, 0, []byte("tail"))
	if err != nil || b2.Count() != 1004 {
		t.Fatalf("append at end: %v", err)
	}
}

func TestDeleteToEmptyAndRebuild(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(200, 24)
	tr := buildMap(t, s, kvs)
	var dels [][]byte
	for k := range kvs {
		dels = append(dels, []byte(k))
	}
	empty, err := tr.MapApply(nil, dels)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Count() != 0 || !empty.Root().IsNil() {
		t.Fatalf("delete-all left count=%d root=%v", empty.Count(), empty.Root())
	}
	// The empty tree accepts new content again.
	again, err := empty.MapSet([]byte("fresh"), []byte("start"))
	if err != nil || again.Count() != 1 {
		t.Fatalf("rebuild from empty: %v", err)
	}
}

func TestElemIterEmptyTree(t *testing.T) {
	s := store.NewMemStore()
	tr := Empty(s, testConfig(), KindMap)
	it := tr.Elems()
	if it.Next() {
		t.Fatal("empty tree yielded an element")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	leaves := tr.Leaves()
	if leaves.Next() {
		t.Fatal("empty tree yielded a leaf")
	}
}

func TestSingleElementTree(t *testing.T) {
	s := store.NewMemStore()
	tr := Empty(s, testConfig(), KindMap)
	tr, err := tr.MapSet([]byte("only"), []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Count() != 1 {
		t.Fatalf("shape: h=%d n=%d", tr.Height(), tr.Count())
	}
	v, ok, err := tr.Get([]byte("only"))
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	loaded, err := Load(s, testConfig(), KindMap, tr.Root())
	if err != nil || loaded.Count() != 1 || loaded.Height() != 1 {
		t.Fatalf("load single-leaf: %v", err)
	}
}

// lyingTree hand-builds a two-level tree of two leaves whose handle
// claims more elements than its nodes hold — a meta chunk whose count
// disagrees with the tree under it.
func lyingTree(t *testing.T, kind Kind, leaves [2][]byte, counts [2]uint64, claim uint64) *Tree {
	t.Helper()
	s := store.NewMemStore()
	var node []byte
	for i, payload := range leaves {
		c := chunk.New(kind.leafType(), payload)
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		node = appendEntry(node, entry{count: counts[i], id: c.ID()})
	}
	root := chunk.New(kind.indexType(), node)
	if _, err := s.Put(root); err != nil {
		t.Fatal(err)
	}
	return Attach(s, testConfig(), kind, root.ID(), claim, 2)
}

// A position the handle's count allows but the nodes do not hold used
// to fall through the index loop with the node's own cid as the child,
// and parse the index node as if it were a leaf. It is corruption, and
// says so.
func TestLyingCountIsCorruption(t *testing.T) {
	list := lyingTree(t, KindList, [2][]byte{
		append(EncodeListElem([]byte("a")), EncodeListElem([]byte("b"))...),
		EncodeListElem([]byte("c")),
	}, [2]uint64{2, 1}, 10)
	if enc, err := list.GetAt(2); err != nil || string(SetElemBody(enc)) != "c" {
		t.Fatalf("GetAt(2) within the nodes = %q, %v", enc, err)
	}
	for _, i := range []uint64{3, 9} {
		if enc, err := list.GetAt(i); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("GetAt(%d) past the nodes' counts = %q, %v; want a corruption error", i, enc, err)
		}
	}

	blob := lyingTree(t, KindBlob, [2][]byte{[]byte("hello "), []byte("world")}, [2]uint64{6, 5}, 64)
	p := make([]byte, 64)
	n, err := blob.ReadAt(p, 0)
	if string(p[:n]) != "hello world" || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("ReadAt across the end of the nodes = %q, %v; want the bytes there are and a corruption error", p[:n], err)
	}
	if n, err := blob.ReadAt(p, 40); n != 0 || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("ReadAt past the nodes' counts = %d bytes, %v; want a corruption error", n, err)
	}

	// The other lie: an index entry that counts more than its leaf
	// holds. ReadAt used to make no progress on it.
	short := lyingTree(t, KindBlob, [2][]byte{[]byte("abc"), []byte("def")}, [2]uint64{5, 3}, 8)
	if n, err := short.ReadAt(p, 0); n != 3 || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("ReadAt into a leaf shorter than its entry = %d bytes, %v; want 3 and a corruption error", n, err)
	}
}
