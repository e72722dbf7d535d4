package postree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

func TestDiffSortedExact(t *testing.T) {
	s := store.NewMemStore()
	base := randomKVs(2000, 10)
	a := buildMap(t, s, base)

	mod := make(map[string]string, len(base))
	for k, v := range base {
		mod[k] = v
	}
	keys := sortedKeys(base)
	delete(mod, keys[100])
	delete(mod, keys[1500])
	mod[keys[200]] = "changed-value"
	mod["aaa-brand-new"] = "v1"
	mod["zzz-brand-new"] = "v2"
	b := buildMap(t, s, mod)

	d, err := DiffSorted(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 2 || len(d.Added) != 2 || len(d.Modified) != 1 {
		t.Fatalf("diff = +%d -%d ~%d, want +2 -2 ~1", len(d.Added), len(d.Removed), len(d.Modified))
	}
	if string(d.Modified[0].Key) != keys[200] || string(d.Modified[0].Value) != "changed-value" {
		t.Fatalf("modified = %q=%q", d.Modified[0].Key, d.Modified[0].Value)
	}
	// The comparison must have skipped most leaves via cid sharing.
	if d.SharedLeaves == 0 {
		t.Fatal("no leaves shared between near-identical trees")
	}
	if unshared := d.TotalLeaves - 2*d.SharedLeaves + d.SharedLeaves; unshared > d.SharedLeaves {
		t.Fatalf("too few shared leaves: shared=%d total=%d", d.SharedLeaves, d.TotalLeaves)
	}
}

func TestDiffIdenticalTrees(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(500, 11)
	a := buildMap(t, s, kvs)
	b := buildMap(t, s, kvs)
	d, err := DiffSorted(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added)+len(d.Removed)+len(d.Modified) != 0 {
		t.Fatal("identical trees reported differences")
	}
}

func TestDiffEmptyVsFull(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(300, 12)
	a := Empty(s, testConfig(), KindMap)
	b := buildMap(t, s, kvs)
	d, err := DiffSorted(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != len(kvs) || len(d.Removed) != 0 {
		t.Fatalf("diff empty vs full: +%d -%d", len(d.Added), len(d.Removed))
	}
}

func TestDiffUnsortedBlobs(t *testing.T) {
	s := store.NewMemStore()
	data := randBytes(128<<10, 13)
	a := buildBlob(t, s, data)
	edited := append([]byte(nil), data...)
	copy(edited[64<<10:], []byte("XXXX-EDIT-XXXX"))
	b := buildBlob(t, s, edited)
	d, err := DiffUnsorted(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.SharedLeaves == 0 {
		t.Fatal("no shared leaves after a 14-byte edit")
	}
	if d.OnlyA == 0 || d.OnlyB == 0 {
		t.Fatal("edit produced no unshared leaves")
	}
	if d.OnlyA > d.SharedLeaves || d.OnlyB > d.SharedLeaves {
		t.Fatalf("localized edit invalidated most leaves: onlyA=%d onlyB=%d shared=%d",
			d.OnlyA, d.OnlyB, d.SharedLeaves)
	}
}

func TestVerifyDetectsMissingChunk(t *testing.T) {
	s := store.NewMemStore()
	kvs := randomKVs(500, 14)
	tr := buildMap(t, s, kvs)
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify on intact tree: %v", err)
	}
	// Rebuild the tree against an empty store: every fetch fails.
	broken, err := Load(s, testConfig(), KindMap, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	broken.s = store.NewMemStore()
	if err := broken.Verify(); err == nil {
		t.Fatal("Verify passed with all chunks missing")
	}
}

func TestDedupAcrossObjects(t *testing.T) {
	// Two different objects sharing 90% of content share most chunks
	// (cross-object dedup, §2.1).
	s := store.NewMemStore()
	common := randomKVs(1000, 15)
	a := buildMap(t, s, common)

	other := make(map[string]string, len(common))
	for k, v := range common {
		other[k] = v
	}
	for i := 0; i < 50; i++ {
		other[fmt.Sprintf("extra-%03d", i)] = "x"
	}
	before := s.Stats()
	b := buildMap(t, s, other)
	after := s.Stats()
	if after.Dups-before.Dups == 0 {
		t.Fatal("no chunks deduplicated across objects")
	}
	sa, _ := a.TreeStats()
	sb, _ := b.TreeStats()
	if grown := after.Bytes - before.Bytes; grown > (sa.Bytes+sb.Bytes)/3 {
		t.Fatalf("store grew %d for a mostly-shared object (tree sizes %d, %d)",
			grown, sa.Bytes, sb.Bytes)
	}
}

// sameSortedDiff compares all five fields of two diffs.
func sameSortedDiff(t *testing.T, what string, got, want *SortedDiff) {
	t.Helper()
	sameKVs := func(field string, g, w []KV) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d entries, the leaf-set definition gives %d", what, field, len(g), len(w))
		}
		for i := range w {
			if !bytes.Equal(g[i].Key, w[i].Key) || !bytes.Equal(g[i].Value, w[i].Value) {
				t.Fatalf("%s: %s[%d] = %q=%q, want %q=%q", what, field, i, g[i].Key, g[i].Value, w[i].Key, w[i].Value)
			}
		}
	}
	sameKVs("Added", got.Added, want.Added)
	sameKVs("Removed", got.Removed, want.Removed)
	sameKVs("Modified", got.Modified, want.Modified)
	if got.SharedLeaves != want.SharedLeaves || got.TotalLeaves != want.TotalLeaves {
		t.Fatalf("%s: shared/total leaves %d/%d, the leaf-set definition gives %d/%d",
			what, got.SharedLeaves, got.TotalLeaves, want.SharedLeaves, want.TotalLeaves)
	}
}

// diffEvent is one call of EachDiff's callback.
type diffEvent struct {
	op DiffOp
	kv KV
}

// sameEachDiff holds EachDiff(a, b) to want, a diff of the same trees:
// one call per key of want's three lists, in key order. It then stops
// the walk halfway with an error from the callback, which must come
// back with no call after it.
func sameEachDiff(t *testing.T, what string, a, b *Tree, want *SortedDiff) {
	t.Helper()
	var events []diffEvent
	for _, l := range []struct {
		op  DiffOp
		kvs []KV
	}{{DiffAdded, want.Added}, {DiffRemoved, want.Removed}, {DiffModified, want.Modified}} {
		for _, kv := range l.kvs {
			events = append(events, diffEvent{l.op, kv})
		}
	}
	sort.Slice(events, func(i, j int) bool { return bytes.Compare(events[i].kv.Key, events[j].kv.Key) < 0 })

	calls := 0
	err := EachDiff(context.Background(), a, b, func(op DiffOp, kv KV) error {
		if calls >= len(events) {
			t.Fatalf("%s: EachDiff emitted more than the %d differences of the leaf-set definition", what, len(events))
		}
		w := events[calls]
		if op != w.op || !bytes.Equal(kv.Key, w.kv.Key) || !bytes.Equal(kv.Value, w.kv.Value) {
			t.Fatalf("%s: EachDiff call %d = %v %q=%q, the leaf-set definition gives %v %q=%q",
				what, calls, op, kv.Key, kv.Value, w.op, w.kv.Key, w.kv.Value)
		}
		calls++
		return nil
	})
	if err != nil || calls != len(events) {
		t.Fatalf("%s: EachDiff made %d of %d calls, then returned %v", what, calls, len(events), err)
	}
	if len(events) == 0 {
		return
	}
	errStop := errors.New("stop")
	stop, calls := len(events)/2+1, 0
	err = EachDiff(context.Background(), a, b, func(DiffOp, KV) error {
		if calls++; calls == stop {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || calls != stop {
		t.Fatalf("%s: EachDiff whose callback failed at call %d made %d calls and returned %v", what, stop, calls, err)
	}
}

// TestDiffPrunedEqualsLeafSet holds the pruned descent to the
// definition it replaced — enumerate both leaf levels, decode the
// leaves in one set and not the other, merge — over random edit
// scripts on Maps and Sets, in both directions, and over the pairs
// where the descent has something to get wrong: different heights, an
// empty side, the same tree twice, trees with no key in common.
func TestDiffPrunedEqualsLeafSet(t *testing.T) {
	ctx := context.Background()
	configs := []Config{{LeafQ: 5, IndexR: 2}, {LeafQ: 6, IndexR: 1, MaxIndexEntries: 4}, {LeafQ: 8, IndexR: 3}}
	for ci, cfg := range configs {
		for _, kind := range []Kind{KindMap, KindSet} {
			t.Run(fmt.Sprintf("%v/cfg%d", kind, ci), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(400 + 10*ci + int(kind))))
				s := store.NewMemStore()
				elem := func(key string) []byte {
					if kind == KindSet {
						return EncodeListElem([]byte(key))
					}
					v := make([]byte, 4+rng.Intn(20))
					rng.Read(v)
					return EncodeMapElem([]byte(key), v)
				}
				build := func(prefix string, n int) *Tree {
					elems := make([][]byte, n)
					for i := range elems {
						elems[i] = elem(fmt.Sprintf("%s%06d", prefix, 3*i))
					}
					return rebuildElems(t, s, cfg, kind, elems)
				}
				check := func(what string, a, b *Tree) {
					t.Helper()
					for _, p := range [][2]*Tree{{a, b}, {b, a}} {
						got, err := DiffSorted(ctx, p[0], p[1])
						if err != nil {
							t.Fatal(err)
						}
						want, err := diffSortedByLeafSet(ctx, p[0], p[1])
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s (heights %d, %d)", what, p[0].Height(), p[1].Height())
						sameSortedDiff(t, label, got, want)
						sameEachDiff(t, label, p[0], p[1], want)
					}
				}
				base := build("k", 1500)
				check("a tree and itself", base, base)
				check("a tree and the empty tree", base, Empty(s, cfg, kind))
				check("two empty trees", Empty(s, cfg, kind), Empty(s, cfg, kind))
				check("a tree and a single leaf", base, build("k", 2))
				check("a tree and its head", base, build("k", 40))
				check("disjoint trees", base, build("q", 900))
				check("interleaved trees", base, build("k0", 700))

				// Edit scripts: each step edits the previous tree; the diff
				// is taken against the step before and against the base.
				cur := base
				for step := 0; step < 30; step++ {
					var sets []KV
					var dels [][]byte
					nops := 1 + rng.Intn(8)
					switch step % 10 {
					case 8:
						nops = 100 // scattered
					case 9:
						nops = 0 // a contiguous range instead
						lo := rng.Intn(1400)
						for i := lo; i < lo+80; i++ {
							dels = append(dels, []byte(fmt.Sprintf("k%06d", 3*i)))
						}
					}
					for i := 0; i < nops; i++ {
						key := fmt.Sprintf("k%06d", rng.Intn(4600))
						if rng.Intn(3) == 0 {
							dels = append(dels, []byte(key))
						} else {
							v := make([]byte, 4+rng.Intn(20))
							rng.Read(v)
							sets = append(sets, KV{Key: []byte(key), Value: v})
						}
					}
					var next *Tree
					var err error
					if kind == KindMap {
						next, err = cur.MapApply(sets, dels)
					} else {
						add := make([][]byte, len(sets))
						for i, kv := range sets {
							add[i] = kv.Key
						}
						if next, err = cur.SetAdd(add...); err == nil {
							next, err = next.SetRemove(dels...)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("step %d against the step before", step), cur, next)
					check(fmt.Sprintf("step %d against the base", step), base, next)
					cur = next
				}
			})
		}
	}
}

// TestDiffUnsortedCountsEveryOccurrence: a Blob that repeats itself
// holds the same leaf several times, and the chunk-wise diff counts
// each occurrence, as the definition over the two leaf lists does.
func TestDiffUnsortedCountsEveryOccurrence(t *testing.T) {
	s := store.NewMemStore()
	unit := randBytes(48<<10, 31)
	a := buildBlob(t, s, bytes.Repeat(unit, 4))
	edited := bytes.Repeat(unit, 3)
	copy(edited[50<<10:], "an edit inside the second repeat")
	b := buildBlob(t, s, append(edited, randBytes(20<<10, 32)...))

	for _, p := range [][2]*Tree{{a, b}, {b, a}, {a, a}, {a, Empty(s, testConfig(), KindBlob)}} {
		la, err := p[0].leafEntries()
		if err != nil {
			t.Fatal(err)
		}
		lb, err := p[1].leafEntries()
		if err != nil {
			t.Fatal(err)
		}
		in := func(l []entry) map[chunk.ID]bool {
			m := map[chunk.ID]bool{}
			for _, e := range l {
				m[e.id] = true
			}
			return m
		}
		inA, inB := in(la), in(lb)
		if len(inA) == len(la) && len(la) > 0 {
			t.Fatal("no leaf repeats; the test is not about duplicates")
		}
		want := UnsortedDiff{}
		for _, e := range la {
			if inB[e.id] {
				want.SharedLeaves++
			} else {
				want.OnlyA++
				want.BytesA += e.count
			}
		}
		for _, e := range lb {
			if !inA[e.id] {
				want.OnlyB++
				want.BytesB += e.count
			}
		}
		got, err := DiffUnsorted(context.Background(), p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("DiffUnsorted = %+v, the leaf lists give %+v", *got, want)
		}
	}
}
