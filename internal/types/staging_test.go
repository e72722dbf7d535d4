package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// stagingKVs returns n entries in strictly increasing key order.
func stagingKVs(n int) []postree.KV {
	rng := rand.New(rand.NewSource(3))
	kvs := make([]postree.KV, n)
	for i := range kvs {
		v := make([]byte, 20+i%80)
		rng.Read(v)
		kvs[i] = postree.KV{Key: []byte(fmt.Sprintf("row-%06d", i)), Value: v}
	}
	return kvs
}

// A Map staged in key order and persisted costs a bounded number of
// allocations per entry, whatever the entry count: the entries go into
// one growing run and from there straight to the tree builder.
func TestMapOrderedStagingAllocs(t *testing.T) {
	const n, perEntry = 10000, 0.1
	kvs := stagingKVs(n)
	cfg := postree.DefaultConfig()
	allocs := testing.AllocsPerRun(3, func() {
		m := NewMap()
		for _, kv := range kvs {
			if err := m.Set(kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := Persist(store.NewMemStore(), cfg, m); err != nil {
			t.Fatal(err)
		}
	})
	if got := allocs / n; got > perEntry {
		t.Fatalf("ordered Map build: %.2f allocations per entry, want at most %v", got, perEntry)
	}
}

// checkMapAnswers compares m's Len, Get and Iter answers with kvs, the
// entries it should hold in key order.
func checkMapAnswers(t *testing.T, name string, m *Map, kvs []postree.KV) {
	t.Helper()
	if m.Len() != uint64(len(kvs)) {
		t.Fatalf("%s: Len %d, want %d", name, m.Len(), len(kvs))
	}
	for i := 0; i < len(kvs); i += 97 {
		if v, ok, err := m.Get(kvs[i].Key); err != nil || !ok || !bytes.Equal(v, kvs[i].Value) {
			t.Fatalf("%s: Get(%s) = %q, %v, %v", name, kvs[i].Key, v, ok, err)
		}
	}
	if _, ok, err := m.Get([]byte("absent")); err != nil || ok {
		t.Fatalf("%s: Get(absent) found it (%v)", name, err)
	}
	i := 0
	err := m.Iter(func(k, v []byte) bool {
		if i >= len(kvs) || !bytes.Equal(k, kvs[i].Key) || !bytes.Equal(v, kvs[i].Value) {
			t.Fatalf("%s: Iter entry %d is %s=%q", name, i, k, v)
		}
		i++
		return true
	})
	if err != nil || i != len(kvs) {
		t.Fatalf("%s: Iter gave %d entries (%v), want %d", name, i, err, len(kvs))
	}
}

// However a fresh Map's entries are staged — in key order, which keeps
// the ordered run, or in any way that falls back to the Go map — it
// answers the same before persist and builds the same tree.
func TestMapStagingEquivalence(t *testing.T) {
	s, cfg := testEnv()
	kvs := stagingKVs(3000)
	set := func(m *Map, kv postree.KV) {
		if err := m.Set(kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	perm := rand.New(rand.NewSource(4)).Perm(len(kvs))
	variants := []struct {
		name  string
		stage func(m *Map)
	}{
		{"in-order", func(m *Map) {
			for _, kv := range kvs {
				set(m, kv)
			}
		}},
		{"one-batch", func(m *Map) {
			if err := m.Apply(kvs, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"reversed", func(m *Map) {
			for i := len(kvs) - 1; i >= 0; i-- {
				set(m, kvs[i])
			}
		}},
		{"shuffled", func(m *Map) {
			for _, i := range perm {
				set(m, kvs[i])
			}
		}},
		{"duplicate-keys", func(m *Map) {
			for i, kv := range kvs {
				if i%7 == 3 {
					set(m, postree.KV{Key: kv.Key, Value: []byte("stale")})
				}
				set(m, kv)
			}
		}},
		{"with-delete", func(m *Map) {
			for i, kv := range kvs {
				set(m, kv)
				if i == 1500 {
					set(m, postree.KV{Key: append(kv.Key, '~'), Value: []byte("gone")})
				}
			}
			if err := m.Delete(append(kvs[1500].Key, '~')); err != nil {
				t.Fatal(err)
			}
		}},
		{"get-midway", func(m *Map) {
			for i, kv := range kvs {
				set(m, kv)
				if i == 10 {
					m.Get(kv.Key)
				}
			}
		}},
	}
	var want string
	for _, v := range variants {
		m := NewMap()
		v.stage(m)
		// The answers are checked on a clone, since asking them moves
		// a key-ordered run into the Go map: m persists as staged.
		c := CloneMap(m)
		checkMapAnswers(t, v.name+" staged", c, kvs)
		for _, h := range []*Map{m, c} {
			if err := Persist(s, cfg, h); err != nil {
				t.Fatal(err)
			}
			root := h.Tree().Root()
			if want == "" {
				want = string(root[:])
			} else if string(root[:]) != want {
				t.Errorf("%s: root %x differs from the in-order build", v.name, root)
			}
		}
		checkMapAnswers(t, v.name+" persisted", m, kvs)
	}
}

// A value read from a Map that left the ordered run is a slice of the
// run; growing it must not write over the entry after it.
func TestMapStagedValueAppend(t *testing.T) {
	m := NewMap()
	m.Set([]byte("a"), []byte("1"))
	m.Set([]byte("b"), []byte("2"))
	v, _, _ := m.Get([]byte("a"))
	_ = append(v, "XXXXXXXXXXXX"...)
	if v, _, _ := m.Get([]byte("b")); string(v) != "2" {
		t.Fatalf("b = %q after appending to a's value", v)
	}
}

// A clone of a Map staged in key order shares its entries; each handle
// must still add entries of its own without writing over the other's.
func TestCloneMapOrderedRun(t *testing.T) {
	m := NewMap()
	m.Set([]byte("a"), []byte("1"))
	c := CloneMap(m)
	m.Set([]byte("b"), []byte("from m"))
	c.Set([]byte("b"), []byte("from c"))
	for _, h := range []struct {
		m    *Map
		want string
	}{{m, "from m"}, {c, "from c"}} {
		if v, _, _ := h.m.Get([]byte("b")); string(v) != h.want {
			t.Errorf("b = %q, want %q", v, h.want)
		}
	}
}

// Appending to a fresh List one element at a time costs allocation
// linear in the elements: an append grows the staged slice in place
// instead of rebuilding it, which would cost n²/2 slice headers.
func TestListStagedAppendLinear(t *testing.T) {
	const n, elemSize = 20000, 16
	const perElem = 1 << 10 // generous: the copy plus the amortized growth is ~90 bytes
	elem := make([]byte, elemSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := NewList()
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(elem, uint32(i))
		if err := l.Append(elem); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > n*perElem {
		t.Fatalf("%d appends allocated %d bytes, want at most %d", n, got, n*perElem)
	}
	if l.Len() != n {
		t.Fatalf("Len %d, want %d", l.Len(), n)
	}
	for _, i := range []uint64{0, 1, n / 2, n - 1} {
		if e, err := l.Get(i); err != nil || binary.LittleEndian.Uint32(e) != uint32(i) || len(e) != elemSize {
			t.Fatalf("Get(%d) = %x, %v", i, e, err)
		}
	}
}
