package postree

import (
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/store"
)

// testConfig uses small chunks so trees get several levels even on
// modest data.
func testConfig() Config {
	return Config{LeafQ: 8, IndexR: 3}
}

func buildMap(t *testing.T, s store.Store, kvs map[string]string) *Tree {
	t.Helper()
	b := NewBuilder(s, testConfig(), KindMap)
	for _, k := range sortedKeys(kvs) {
		b.Append(EncodeMapElem([]byte(k), []byte(kvs[k])))
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func randomKVs(n int, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[string]string, n)
	for len(m) < n {
		k := fmt.Sprintf("key-%08d", rng.Intn(n*10))
		v := fmt.Sprintf("value-%d-%d", rng.Int63(), rng.Int63())
		m[k] = v
	}
	return m
}

func TestEmptyTree(t *testing.T) {
	s := store.NewMemStore()
	tr := Empty(s, testConfig(), KindMap)
	if tr.Count() != 0 || tr.Height() != 0 || !tr.Root().IsNil() {
		t.Fatal("empty tree not empty")
	}
	_, ok, err := tr.Get([]byte("k"))
	if err != nil || ok {
		t.Fatalf("Get on empty: ok=%v err=%v", ok, err)
	}
	loaded, err := Load(s, testConfig(), KindMap, tr.Root())
	if err != nil || loaded.Count() != 0 {
		t.Fatalf("Load empty: %v", err)
	}
}

func TestMapBuildAndGet(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(2000, 1)
	tr := buildMap(t, s, kvs)
	if tr.Count() != uint64(len(kvs)) {
		t.Fatalf("count %d, want %d", tr.Count(), len(kvs))
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: test data too small to be meaningful", tr.Height())
	}
	for k, v := range kvs {
		got, ok, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q ok=%v, want %q", k, got, ok, v)
		}
	}
	if _, ok, _ := tr.Get([]byte("missing-key")); ok {
		t.Fatal("found a missing key")
	}
	if _, ok, _ := tr.Get([]byte("zzzzzz-beyond-max")); ok {
		t.Fatal("found a key beyond the max")
	}
}

func TestLoadRecomputesShape(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(1500, 2)
	tr := buildMap(t, s, kvs)
	loaded, err := Load(s, testConfig(), KindMap, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Count() != tr.Count() || loaded.Height() != tr.Height() {
		t.Fatalf("Load: count %d/%d height %d/%d",
			loaded.Count(), tr.Count(), loaded.Height(), tr.Height())
	}
}

// Structural determinism: the same content yields the same root no
// matter how it was produced (fresh build vs edits). This is what makes
// POS-Tree deduplication effective (§4.3).
func TestHistoryIndependence(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(1000, 3)

	fresh := buildMap(t, s, kvs)

	// Build from a subset, then add the remainder in random batches.
	keys := sortedKeys(kvs)
	partial := make(map[string]string)
	for _, k := range keys[:500] {
		partial[k] = kvs[k]
	}
	tr := buildMap(t, s, partial)
	rng := rand.New(rand.NewSource(4))
	rest := append([]string(nil), keys[500:]...)
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for len(rest) > 0 {
		n := 1 + rng.Intn(50)
		if n > len(rest) {
			n = len(rest)
		}
		var batch []KV
		for _, k := range rest[:n] {
			batch = append(batch, KV{Key: []byte(k), Value: []byte(kvs[k])})
		}
		rest = rest[n:]
		var err error
		tr, err = tr.MapApply(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Root() != fresh.Root() {
		t.Fatalf("insertion order changed the tree: %s vs %s",
			tr.Root().Short(), fresh.Root().Short())
	}
	if tr.Count() != fresh.Count() {
		t.Fatalf("count %d vs %d", tr.Count(), fresh.Count())
	}
}

func TestMapApplyAgainstModel(t *testing.T) {
	s := store.NewMemStore()
	model := randomKVs(800, 5)
	tr := buildMap(t, s, model)
	rng := rand.New(rand.NewSource(6))
	keys := sortedKeys(model)

	for round := 0; round < 30; round++ {
		var sets []KV
		var dels [][]byte
		for i := 0; i < 20; i++ {
			switch rng.Intn(3) {
			case 0: // overwrite existing
				k := keys[rng.Intn(len(keys))]
				v := fmt.Sprintf("v%d", rng.Int63())
				if _, exists := model[k]; exists {
					sets = append(sets, KV{Key: []byte(k), Value: []byte(v)})
					model[k] = v
				}
			case 1: // insert new
				k := fmt.Sprintf("new-%d-%d", round, i)
				v := fmt.Sprintf("v%d", rng.Int63())
				sets = append(sets, KV{Key: []byte(k), Value: []byte(v)})
				model[k] = v
			case 2: // delete
				k := keys[rng.Intn(len(keys))]
				if _, exists := model[k]; exists {
					dels = append(dels, []byte(k))
					delete(model, k)
				}
			}
		}
		var err error
		tr, err = tr.MapApply(sets, dels)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Count() != uint64(len(model)) {
			t.Fatalf("round %d: count %d, want %d", round, tr.Count(), len(model))
		}
	}
	// Full verification against the model, in both directions.
	for k, v := range model {
		got, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q ok=%v err=%v, want %q", k, got, ok, err, v)
		}
	}
	it := tr.Elems()
	n := 0
	for it.Next() {
		k := string(MapElemKey(it.Elem()))
		if model[k] != string(MapElemValue(it.Elem())) {
			t.Fatalf("iterated element %q not in model", k)
		}
		n++
	}
	if it.Err() != nil || n != len(model) {
		t.Fatalf("iterated %d elements, want %d (err %v)", n, len(model), it.Err())
	}
	// The final tree must equal a fresh build of the model.
	fresh := buildMap(t, s, model)
	if fresh.Root() != tr.Root() {
		t.Fatal("edited tree differs from fresh build of same content")
	}
}

func TestMapApplyLastWriteWins(t *testing.T) {
	s := store.NewMemStore()
	tr := Empty(s, testConfig(), KindMap)
	tr, err := tr.MapApply([]KV{
		{Key: []byte("k"), Value: []byte("first")},
		{Key: []byte("k"), Value: []byte("second")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "second" {
		t.Fatalf("got %q, want second", v)
	}
	// Set then delete in one batch: delete wins (it is last).
	tr2, err := tr.MapApply(nil, [][]byte{[]byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := tr2.Get([]byte("k")); got != nil {
		t.Fatal("delete did not win")
	}
}

// TestMapApplySetsThenDeletes: MapApply's ops are its sets, then its
// deletes, so a key in both ends up deleted; sets out of key order still
// all apply, on an empty tree and on a built one.
func TestMapApplySetsThenDeletes(t *testing.T) {
	s := store.NewMemStore()
	sets := []KV{
		{Key: []byte("m"), Value: []byte("1")},
		{Key: []byte("c"), Value: []byte("2")},
		{Key: []byte("x"), Value: []byte("3")},
		{Key: []byte("a"), Value: []byte("4")},
	}
	dels := [][]byte{[]byte("c"), []byte("z")}
	want := map[string]string{"m": "1", "x": "3", "a": "4"}
	for _, base := range []*Tree{Empty(s, testConfig(), KindMap), buildMap(t, s, randomKVs(500, 9))} {
		tr, err := base.MapApply(sets, dels)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, err := tr.Get([]byte("c")); ok || err != nil {
			t.Fatalf("Get(c) = %q, %v, %v; a key set and deleted in one batch must be gone", v, ok, err)
		}
		for k, v := range want {
			if got, ok, err := tr.Get([]byte(k)); !ok || err != nil || string(got) != v {
				t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, got, ok, err, v)
			}
		}
		if got := tr.Count(); got != base.Count()+3 {
			t.Fatalf("count %d; want %d", got, base.Count()+3)
		}
	}
}

func TestCopyOnWriteSharing(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(3000, 7)
	tr := buildMap(t, s, kvs)
	before := s.Stats()

	tr2, err := tr.MapSet([]byte("key-00000001"), []byte("updated"))
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	newBytes := after.Bytes - before.Bytes
	st, err := tr.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	// A single-key update must write far less than the tree size.
	if newBytes > st.Bytes/4 {
		t.Fatalf("single-key update wrote %d bytes of a %d byte tree", newBytes, st.Bytes)
	}
	// Old tree still intact (copy-on-write, not in-place).
	if v, ok, _ := tr.Get([]byte("key-00000001")); ok && string(v) == "updated" {
		t.Fatal("old snapshot sees the update")
	}
	if v, ok, _ := tr2.Get([]byte("key-00000001")); !ok || string(v) != "updated" {
		t.Fatalf("new snapshot missing the update: %q %v", v, ok)
	}
}

func TestGetAt(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(500, 8)
	tr := buildMap(t, s, kvs)
	keys := sortedKeys(kvs)
	for _, i := range []uint64{0, 1, 42, 250, uint64(len(keys) - 1)} {
		enc, err := tr.GetAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if string(MapElemKey(enc)) != keys[i] {
			t.Fatalf("GetAt(%d) = %q, want %q", i, MapElemKey(enc), keys[i])
		}
	}
	if _, err := tr.GetAt(uint64(len(keys))); err == nil {
		t.Fatal("GetAt out of range succeeded")
	}
}

func TestSetOperations(t *testing.T) {
	s := store.NewMemStore()
	b := NewBuilder(s, testConfig(), KindSet)
	for i := 0; i < 100; i++ {
		b.Append(EncodeListElem([]byte(fmt.Sprintf("elem-%03d", i))))
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Has([]byte("elem-050"))
	if err != nil || !ok {
		t.Fatalf("Has existing: %v %v", ok, err)
	}
	tr, err = tr.SetAdd([]byte("elem-050"), []byte("zzz-new"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 101 { // re-adding an element is a no-op
		t.Fatalf("count %d, want 101", tr.Count())
	}
	tr, err = tr.SetRemove([]byte("elem-000"), []byte("not-there"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 100 {
		t.Fatalf("count %d, want 100", tr.Count())
	}
	if ok, _ := tr.Has([]byte("elem-000")); ok {
		t.Fatal("removed element still present")
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	s := store.NewMemStore()
	b := NewBuilder(s, testConfig(), KindMap)
	b.Append(EncodeMapElem([]byte("b"), []byte("1")))
	b.Append(EncodeMapElem([]byte("a"), []byte("2")))
	if _, err := b.Finish(); err == nil {
		t.Fatal("out-of-order build succeeded")
	}
	b2 := NewBuilder(s, testConfig(), KindMap)
	b2.Append(EncodeMapElem([]byte("a"), []byte("1")))
	b2.Append(EncodeMapElem([]byte("a"), []byte("2")))
	if _, err := b2.Finish(); err == nil {
		t.Fatal("duplicate-key build succeeded")
	}
}
