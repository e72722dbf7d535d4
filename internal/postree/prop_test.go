package postree

// Property-based tests for the POS-Tree: random edit scripts run
// against a plain map oracle, and after every script three invariants
// must hold —
//
//	(a) the tree's contents equal the oracle's;
//	(b) trees holding identical content have identical root cids, no
//	    matter which edit sequence produced them (the paper's
//	    pattern-aware split determinism, and the property the store's
//	    deduplication rests on);
//	(c) every chunk reachable from the root exists in the store — the
//	    exact reachability walk the GC marker performs, so an edit
//	    path that forgot to persist a node is caught here before a
//	    collection would turn it into data loss.
//
// FuzzPosTreeEdits drives the same invariants from fuzzer-generated
// scripts.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// propConfig uses tiny chunks so even small scripts build multi-level
// trees (deep index paths are where edit bugs live).
var propConfig = Config{LeafQ: 5, IndexR: 2}

// reachableChunks walks the tree DAG from root — the GC marker's walk —
// failing the test if any reachable chunk is missing from the store.
func reachableChunks(tb testing.TB, s store.Store, root chunk.ID) map[chunk.ID]bool {
	tb.Helper()
	seen := map[chunk.ID]bool{}
	if root.IsNil() {
		return seen
	}
	stack := []chunk.ID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		c, err := s.Get(id)
		if err != nil {
			tb.Fatalf("reachable chunk %s missing from store: %v", id.Short(), err)
		}
		if isIndex(c.Type()) {
			ids, err := IndexChildIDs(c.Data())
			if err != nil {
				tb.Fatal(err)
			}
			stack = append(stack, ids...)
		}
	}
	return seen
}

// buildMap constructs a Map tree from scratch out of sorted oracle
// contents.
func propBuildMap(tb testing.TB, s store.Store, oracle map[string][]byte) *Tree {
	tb.Helper()
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := NewBuilder(s, propConfig, KindMap)
	for _, k := range keys {
		b.Append(EncodeMapElem([]byte(k), oracle[k]))
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// checkMapInvariants asserts (a), (b) and (c) for one tree + oracle.
func checkMapInvariants(tb testing.TB, s store.Store, tr *Tree, oracle map[string][]byte) {
	tb.Helper()
	// (a) contents match the oracle, in key order.
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if tr.Count() != uint64(len(oracle)) {
		tb.Fatalf("tree count %d, oracle %d", tr.Count(), len(oracle))
	}
	it := tr.Elems()
	i := 0
	for it.Next() {
		if i >= len(keys) {
			tb.Fatalf("tree has more elements than oracle")
		}
		k, v := MapElemKey(it.Elem()), MapElemValue(it.Elem())
		if string(k) != keys[i] || !bytes.Equal(v, oracle[keys[i]]) {
			tb.Fatalf("element %d: tree %q=%q, oracle %q=%q", i, k, v, keys[i], oracle[keys[i]])
		}
		i++
	}
	if err := it.Err(); err != nil {
		tb.Fatal(err)
	}
	if i != len(keys) {
		tb.Fatalf("tree iterated %d elements, oracle has %d", i, len(keys))
	}
	// (b) content determines the root: a from-scratch build of the
	// same contents lands on a bit-identical root cid.
	if rebuilt := propBuildMap(tb, s, oracle); rebuilt.Root() != tr.Root() {
		tb.Fatalf("edit-order dependence: edited root %s, rebuilt root %s",
			tr.Root().Short(), rebuilt.Root().Short())
	}
	// (c) every reachable chunk exists.
	reachableChunks(tb, s, tr.Root())
}

// propKey returns the i-th key of the bounded key universe (collisions
// between script steps are the interesting cases).
func propKey(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }

// applyScript runs one oracle-mirrored edit batch against the tree.
func applyScript(tb testing.TB, tr *Tree, oracle map[string][]byte, sets []KV, deletes [][]byte) *Tree {
	tb.Helper()
	next, err := tr.MapApply(sets, deletes)
	if err != nil {
		tb.Fatal(err)
	}
	for _, kv := range sets {
		oracle[string(kv.Key)] = append([]byte(nil), kv.Value...)
	}
	for _, k := range deletes {
		delete(oracle, string(k))
	}
	return next
}

func TestPosTreePropertyMapEdits(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		t.Run(fmt.Sprintf("seed%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(iter)))
			s := store.NewMemStore()
			tr := Empty(s, propConfig, KindMap)
			oracle := map[string][]byte{}
			steps := 8 + rng.Intn(10)
			for step := 0; step < steps; step++ {
				var sets []KV
				var deletes [][]byte
				for n := rng.Intn(24); n >= 0; n-- {
					k := propKey(rng.Intn(120))
					if rng.Intn(4) == 0 {
						deletes = append(deletes, k)
					} else {
						sets = append(sets, KV{Key: k, Value: []byte(fmt.Sprintf("v%d-%d", step, rng.Intn(1000)))})
					}
				}
				tr = applyScript(t, tr, oracle, sets, deletes)
			}
			checkMapInvariants(t, s, tr, oracle)
		})
	}
}

// TestPosTreeEditOrderIndependence drives two different edit orders to
// the same final content and demands bit-identical roots: version A
// applies assignments in one shuffle, version B in another — with
// extra inserts that are deleted again before the end.
func TestPosTreeEditOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	final := map[string][]byte{}
	for i := 0; i < 150; i++ {
		final[string(propKey(i))] = []byte(fmt.Sprintf("final-%d", i))
	}
	build := func(shuffleSeed int64, detour bool) *Tree {
		s := store.NewMemStore()
		tr := Empty(s, propConfig, KindMap)
		keys := make([]string, 0, len(final))
		for k := range final {
			keys = append(keys, k)
		}
		sr := rand.New(rand.NewSource(shuffleSeed))
		sr.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var err error
		for _, k := range keys {
			if detour && sr.Intn(3) == 0 {
				// Insert garbage that is removed again: the final tree
				// must not remember the detour.
				g := []byte("detour-" + k)
				if tr, err = tr.MapSet(g, []byte("x")); err != nil {
					t.Fatal(err)
				}
				if tr, err = tr.MapSet(g, []byte("y")); err != nil {
					t.Fatal(err)
				}
				if tr, err = tr.MapDelete(g); err != nil {
					t.Fatal(err)
				}
			}
			if tr, err = tr.MapSet([]byte(k), final[k]); err != nil {
				t.Fatal(err)
			}
		}
		checkMapInvariants(t, s, tr, final)
		return tr
	}
	a := build(rng.Int63(), false)
	b := build(rng.Int63(), true)
	if a.Root() != b.Root() {
		t.Fatalf("same content, different roots: %s vs %s", a.Root().Short(), b.Root().Short())
	}
}

// FuzzPosTreeEdits interprets fuzzer bytes as a map edit script and
// checks the three invariants after every batch. Script format: each
// op consumes 3 bytes (op selector, key, value); every 16th op closes
// a batch.
func FuzzPosTreeEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{7, 42, 99, 3, 0, 250}, 40))
	seed := make([]byte, 0, 300)
	for i := 0; i < 100; i++ {
		seed = append(seed, byte(i), byte(i*7), byte(i*13))
	}
	f.Add(seed)
	// Same-length updates: three batches set the same 64 keys, the
	// later ones changing only value bytes.
	var update []byte
	for round := 0; round < 3; round++ {
		for k := 0; k < 64; k++ {
			update = append(update, 1, byte(k*3), byte(round*50+k))
		}
	}
	f.Add(update)
	f.Fuzz(func(t *testing.T, script []byte) {
		s := store.NewMemStore()
		tr := Empty(s, propConfig, KindMap)
		oracle := map[string][]byte{}
		var sets []KV
		var deletes [][]byte
		ops := 0
		for i := 0; i+2 < len(script); i += 3 {
			op, kb, vb := script[i], script[i+1], script[i+2]
			k := propKey(int(kb))
			if op%4 == 0 {
				deletes = append(deletes, k)
			} else {
				sets = append(sets, KV{Key: k, Value: []byte{vb, op, kb}})
			}
			ops++
			if ops%16 == 0 {
				tr = applyScript(t, tr, oracle, sets, deletes)
				sets, deletes = nil, nil
			}
		}
		tr = applyScript(t, tr, oracle, sets, deletes)
		checkMapInvariants(t, s, tr, oracle)
	})
}

// Exactness of window-local re-chunking: whatever an edit copies
// instead of rolling, the edited tree must be the tree a Builder makes
// of the same content. The configs cover ordinary leaves, tiny ones,
// and leaves where the forced MaxLeafBytes cut is the common ending;
// the last three narrow the index nodes so that trees of height four
// and more, and index nodes ended by the forced MaxIndexEntries cut,
// are what an edit walks through.
var exactConfigs = []Config{
	{LeafQ: 8, IndexR: 3},
	{LeafQ: 10, IndexR: 3},
	{LeafQ: 5, IndexR: 2},
	{LeafQ: 8, IndexR: 3, MaxLeafBytes: 300},
	{LeafQ: 6, IndexR: 2, MaxLeafBytes: 100},
	{LeafQ: 5, IndexR: 1},
	{LeafQ: 5, IndexR: 2, MaxIndexEntries: 3},
	{LeafQ: 6, IndexR: 1, MaxIndexEntries: 4},
}

// rebuildElems builds an element tree from scratch.
func rebuildElems(tb testing.TB, s store.Store, cfg Config, kind Kind, elems [][]byte) *Tree {
	tb.Helper()
	b := NewBuilder(s, cfg, kind)
	for _, e := range elems {
		b.Append(e)
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// edgeKeys returns keys of a sorted tree that sit at leaf edges: each
// leaf's last element and the first element of the next leaf.
func edgeKeys(tb testing.TB, tr *Tree) [][]byte {
	tb.Helper()
	leaves, err := tr.leafEntries()
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, l := range leaves {
		out = append(out, l.key)
		elems, err := tr.leafElems(l.id)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, elemKey(tr.kind, elems[0]))
		if len(elems) > 2 {
			out = append(out, elemKey(tr.kind, elems[1]), elemKey(tr.kind, elems[len(elems)-2]))
		}
	}
	return out
}

// TestIndexLevelsEqualBatchBuild holds the streaming index levels to
// the level-at-a-time reference over leaf lists of every small length
// and some long ones, under index nodes narrow enough that a level of
// one node that ends on the pattern, a first child that ends its node,
// and the forced cut all occur.
func TestIndexLevelsEqualBatchBuild(t *testing.T) {
	configs := []Config{{LeafQ: 5, IndexR: 1}, {LeafQ: 5, IndexR: 2, MaxIndexEntries: 3}, {LeafQ: 8, IndexR: 3}}
	for ci, cfg := range configs {
		for _, kind := range []Kind{KindMap, KindList} {
			rng := rand.New(rand.NewSource(int64(500 + ci)))
			for n := 0; n < 200; n++ {
				count := n
				if n >= 150 {
					count = 150 + rng.Intn(2500)
				}
				s := store.NewMemStore()
				elems := make([][]byte, count)
				for i := range elems {
					v := make([]byte, 8+rng.Intn(24))
					rng.Read(v)
					if kind == KindMap {
						elems[i] = EncodeMapElem([]byte(fmt.Sprintf("k%06d", i)), v)
					} else {
						elems[i] = EncodeListElem(v)
					}
				}
				tr := rebuildElems(t, s, cfg, kind, elems)
				leaves, err := tr.leafEntries()
				if err != nil {
					t.Fatal(err)
				}
				root, height, err := buildIndexBatch(store.NewMemStore(), cfg, kind, leaves)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Root() != root || tr.Height() != height || tr.Count() != uint64(count) {
					t.Fatalf("cfg%d %v, %d elements in %d leaves: streaming root %s height %d count %d, level-at-a-time root %s height %d",
						ci, kind, count, len(leaves), tr.Root().Short(), tr.Height(), tr.Count(), root.Short(), height)
				}
			}
		}
	}
}

func TestSortedEditEqualsRebuild(t *testing.T) {
	for ci, cfg := range exactConfigs {
		for _, kind := range []Kind{KindMap, KindSet} {
			t.Run(fmt.Sprintf("%v/cfg%d", kind, ci), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*ci) + int64(kind)))
				s := store.NewMemStore()
				model := map[string][]byte{} // key -> value (nil for Set)
				value := func(n int) []byte {
					if kind == KindSet {
						return nil
					}
					v := make([]byte, n)
					rng.Read(v)
					return v
				}
				for i := 0; i < 600; i++ {
					model[fmt.Sprintf("k%05d", rng.Intn(40000))] = value(8 + rng.Intn(24))
				}
				encode := func() [][]byte {
					keys := make([]string, 0, len(model))
					for k := range model {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					out := make([][]byte, len(keys))
					for i, k := range keys {
						if kind == KindMap {
							out[i] = EncodeMapElem([]byte(k), model[k])
						} else {
							out[i] = EncodeListElem([]byte(k))
						}
					}
					return out
				}
				tr := rebuildElems(t, s, cfg, kind, encode())
				for step := 0; step < 120; step++ {
					keys := make([]string, 0, len(model))
					for k := range model {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					edges := edgeKeys(t, tr)
					pick := func() string { // an existing key, biased to leaf edges
						if len(edges) > 0 && rng.Intn(3) == 0 {
							return string(edges[rng.Intn(len(edges))])
						}
						return keys[rng.Intn(len(keys))]
					}
					var sets []KV
					var dels [][]byte
					nops := 1 + rng.Intn(6)
					if step%10 == 9 {
						nops = 40 // a scattered batch
					}
					near := pick()
					for i := 0; i < nops; i++ {
						k := pick()
						if rng.Intn(3) == 0 { // several ops in one leaf: stay close
							j := sort.SearchStrings(keys, near) + rng.Intn(5)
							if j < len(keys) {
								k = keys[j]
							}
						}
						if rng.Intn(8) == 0 { // edits in the last leaf
							k = keys[len(keys)-1-rng.Intn(3)]
						}
						switch rng.Intn(5) {
						case 0: // same-length replacement
							sets = append(sets, KV{Key: []byte(k), Value: value(len(model[k]))})
						case 1: // length-changing set
							sets = append(sets, KV{Key: []byte(k), Value: value(1 + rng.Intn(60))})
						case 2: // insert beside an existing key, or past the end
							nk := k + string(rune('a'+rng.Intn(3)))
							if rng.Intn(6) == 0 {
								nk = fmt.Sprintf("z%05d", rng.Intn(1000))
							}
							sets = append(sets, KV{Key: []byte(nk), Value: value(8 + rng.Intn(24))})
						case 3:
							dels = append(dels, []byte(k))
						case 4: // absent key
							dels = append(dels, []byte(k+"~"))
						}
					}
					var err error
					if kind == KindMap {
						tr, err = tr.MapApply(sets, dels)
					} else {
						add := make([][]byte, len(sets))
						for i, kv := range sets {
							add[i] = kv.Key
						}
						if tr, err = tr.SetAdd(add...); err == nil {
							tr, err = tr.SetRemove(dels...)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					for _, kv := range sets {
						model[string(kv.Key)] = kv.Value
					}
					for _, k := range dels {
						delete(model, string(k))
					}
					want := rebuildElems(t, s, cfg, kind, encode())
					if tr.Root() != want.Root() || tr.Count() != want.Count() {
						t.Fatalf("step %d (sets %d, deletes %d): edited root %s count %d, rebuilt root %s count %d",
							step, len(sets), len(dels), tr.Root().Short(), tr.Count(), want.Root().Short(), want.Count())
					}
				}
				reachableChunks(t, s, tr.Root())
			})
		}
	}
}

func TestListSpliceEqualsRebuild(t *testing.T) {
	for ci, cfg := range exactConfigs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + ci)))
			s := store.NewMemStore()
			elem := func() []byte {
				e := make([]byte, 4+rng.Intn(40))
				rng.Read(e)
				return e
			}
			var model [][]byte // encoded
			for i := 0; i < 700; i++ {
				model = append(model, EncodeListElem(elem()))
			}
			tr := rebuildElems(t, s, cfg, KindList, model)
			for step := 0; step < 150; step++ {
				leaves, err := tr.leafEntries()
				if err != nil {
					t.Fatal(err)
				}
				at := rng.Intn(len(model) + 1)
				if rng.Intn(3) == 0 { // at, or one off, a leaf's first element
					var pos uint64
					stop := rng.Intn(len(leaves) + 1)
					for _, l := range leaves[:stop] {
						pos += l.count
					}
					at = int(pos) + rng.Intn(3) - 1
				}
				if rng.Intn(8) == 0 {
					at = len(model) - rng.Intn(3) // the last leaf, or an append
				}
				if at < 0 {
					at = 0
				}
				if at > len(model) {
					at = len(model)
				}
				del := rng.Intn(4)
				if rng.Intn(10) == 0 {
					del = rng.Intn(60) // across several leaves
				}
				if at+del > len(model) {
					del = len(model) - at
				}
				var ins, encIns [][]byte
				for n := rng.Intn(4); n > 0; n-- {
					e := elem()
					if del > 0 && rng.Intn(2) == 0 { // same-length replacement
						e = make([]byte, len(model[at])-4)
						rng.Read(e)
					}
					ins = append(ins, e)
					encIns = append(encIns, EncodeListElem(e))
				}
				if tr, err = tr.ListSplice(uint64(at), uint64(del), ins); err != nil {
					t.Fatal(err)
				}
				next := append([][]byte(nil), model[:at]...)
				next = append(next, encIns...)
				model = append(next, model[at+del:]...)
				want := rebuildElems(t, s, cfg, KindList, model)
				if tr.Root() != want.Root() || tr.Count() != want.Count() {
					t.Fatalf("step %d: splice(at %d, del %d, ins %d): edited root %s count %d, rebuilt root %s count %d",
						step, at, del, len(ins), tr.Root().Short(), tr.Count(), want.Root().Short(), want.Count())
				}
				if len(model) < 300 { // keep several leaves in play
					for i := 0; i < 300; i++ {
						model = append(model, EncodeListElem(elem()))
					}
					tr = rebuildElems(t, s, cfg, KindList, model)
				}
			}
			reachableChunks(t, s, tr.Root())
		})
	}
}

// TestMapApplyRollsTheDelta pins the locality of a scattered batch:
// the state Map of the ledger workload — 10 000 entries, 100 values
// replaced in place per block — pays the rolling hash for the windows
// around its 100 keys, not for the ~60 % of leaves that hold one.
func TestMapApplyRollsTheDelta(t *testing.T) {
	tr, sets, treeBytes := scatteredMapEdit(t)
	var next *Tree
	rolled := rolledDuring(func() {
		var err error
		if next, err = tr.MapApply(sets, nil); err != nil {
			t.Fatal(err)
		}
	})
	if next.Root() == tr.Root() {
		t.Fatal("batch changed nothing")
	}
	if rolled == 0 || rolled > treeBytes/10 {
		t.Fatalf("100 in-place updates rolled %d of the tree's %d leaf bytes; want at most 10%%", rolled, treeBytes)
	}
	t.Logf("rolled %d of %d leaf bytes (%.1f%%)", rolled, treeBytes, 100*float64(rolled)/float64(treeBytes))
}

// scatteredMapEdit builds the ledger's state Map (account name ->
// 32-byte version id) and a block's worth of in-place updates.
func scatteredMapEdit(tb testing.TB) (tr *Tree, sets []KV, leafBytes int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(15))
	s := store.NewMemStore()
	b := NewBuilder(s, DefaultConfig(), KindMap)
	uid := func() []byte {
		v := make([]byte, 32)
		rng.Read(v)
		return v
	}
	const entries, updates = 10_000, 100
	for i := 0; i < entries; i++ {
		e := EncodeMapElem([]byte(fmt.Sprintf("acct%06d", i)), uid())
		leafBytes += len(e)
		b.Append(e)
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	for _, i := range rng.Perm(entries)[:updates] {
		sets = append(sets, KV{Key: []byte(fmt.Sprintf("acct%06d", i)), Value: uid()})
	}
	return tr, sets, leafBytes
}

// subtreeSpans returns the element range [from, to) under every node
// of the tree, leaves and the root included.
func subtreeSpans(tb testing.TB, tr *Tree) [][2]uint64 {
	tb.Helper()
	var out [][2]uint64
	var walk func(id chunk.ID, lvl int, from, count uint64)
	walk = func(id chunk.ID, lvl int, from, count uint64) {
		out = append(out, [2]uint64{from, from + count})
		if lvl == 1 {
			return
		}
		c, err := tr.s.Get(id)
		if err != nil {
			tb.Fatal(err)
		}
		entries, err := decodeEntries(c.Data())
		if err != nil {
			tb.Fatal(err)
		}
		for _, e := range entries {
			walk(e.id, lvl-1, from, e.count)
			from += e.count
		}
	}
	walk(tr.Root(), tr.Height(), 0, tr.Count())
	return out
}

// TestEditDownToOneSubtreeEqualsRebuild removes everything but what
// one old node holds — for every node of the tree, tail and head in
// one edit where the kind allows it and tail first otherwise — so the
// node comes through by reference with nothing beside it. Under the
// narrow index configs many of these are nodes of a single child,
// which a from-scratch build of the same content never puts on top.
func TestEditDownToOneSubtreeEqualsRebuild(t *testing.T) {
	for ci, cfg := range exactConfigs {
		for _, kind := range []Kind{KindMap, KindSet, KindList, KindBlob} {
			t.Run(fmt.Sprintf("%v/cfg%d", kind, ci), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(700 + ci)))
				s := store.NewMemStore()
				var elems [][]byte // for a Blob, one byte each
				var keys [][]byte
				switch kind {
				case KindBlob:
					for _, b := range randBytes(12<<10, int64(ci)) {
						elems = append(elems, []byte{b})
					}
				default:
					for i := 0; i < 400; i++ {
						v := make([]byte, 8+rng.Intn(24))
						rng.Read(v)
						k := []byte(fmt.Sprintf("k%05d", i))
						keys = append(keys, k)
						switch kind {
						case KindMap:
							elems = append(elems, EncodeMapElem(k, v))
						case KindSet:
							elems = append(elems, EncodeListElem(k))
						default:
							elems = append(elems, EncodeListElem(v))
						}
					}
				}
				rebuild := func(elems [][]byte) *Tree {
					if kind != KindBlob {
						return rebuildElems(t, s, cfg, kind, elems)
					}
					b := NewBuilder(s, cfg, kind)
					b.AppendBytes(bytes.Join(elems, nil))
					tr, err := b.Finish()
					if err != nil {
						t.Fatal(err)
					}
					return tr
				}
				full := rebuild(elems)
				for _, sp := range subtreeSpans(t, full) {
					from, to := sp[0], sp[1]
					var got *Tree
					var err error
					switch kind {
					case KindMap, KindSet:
						dels := append(append([][]byte(nil), keys[:from]...), keys[to:]...)
						if kind == KindMap {
							got, err = full.MapApply(nil, dels)
						} else {
							got, err = full.SetRemove(dels...)
						}
					case KindList:
						if got, err = full.ListSplice(to, full.Count()-to, nil); err == nil {
							got, err = got.ListSplice(0, from, nil)
						}
					default:
						if got, err = full.SpliceBytes(to, full.Count()-to, nil); err == nil {
							got, err = got.SpliceBytes(0, from, nil)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					want := rebuild(elems[from:to])
					if got.Root() != want.Root() || got.Height() != want.Height() || got.Count() != want.Count() {
						t.Fatalf("kept [%d,%d) of %d: edited root %s height %d count %d, rebuilt root %s height %d count %d",
							from, to, len(elems), got.Root().Short(), got.Height(), got.Count(),
							want.Root().Short(), want.Height(), want.Count())
					}
					if kind == KindBlob && !bytes.Equal(blobBytes(t, got), bytes.Join(elems[from:to], nil)) {
						t.Fatalf("kept [%d,%d) of %d: the content reads back wrong", from, to, len(elems))
					}
				}
			})
		}
	}
}

// TestEditAfterCutForgetsTheHash: once an edit has cut a leaf, the
// copied prefix of the next edited leaf can come out exactly as long as
// the bytes the chunker last hashed. The chunker tells a copied run
// from bytes it has hashed by length alone, so only the Next at every
// cut keeps the old leaf's hash out of the new one. Each edit here
// rewrites the first element of one leaf and inserts a run of elements
// at one element offset of the next, over every offset, with all
// elements of one size, so that one of the offsets is that length.
func TestEditAfterCutForgetsTheHash(t *testing.T) {
	cfg := Config{LeafQ: 8, IndexR: 4}
	s := store.NewMemStore()
	rng := rand.New(rand.NewSource(71))
	elem := func(k int) KV {
		v := make([]byte, 16)
		rng.Read(v)
		return KV{Key: []byte(fmt.Sprintf("k%07d", k)), Value: v}
	}
	var base []KV // keys 100 apart, room for a run between two
	for i := 0; i < 600; i++ {
		base = append(base, elem(100*i))
	}
	build := func(kvs []KV) *Tree {
		elems := make([][]byte, len(kvs))
		for i, kv := range kvs {
			elems[i] = EncodeMapElem(kv.Key, kv.Value)
		}
		return rebuildElems(t, s, cfg, KindMap, elems)
	}
	tr := build(base)
	leaves, err := tr.leafEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 20 {
		t.Fatalf("only %d leaves", len(leaves))
	}
	edits, start := 0, 0
	for a := 0; a < 16; a++ {
		b := start + int(leaves[a].count) // the next leaf's first element
		for j := 1; j < int(leaves[a+1].count); j++ {
			sets := []KV{elem(100 * start)} // a new value for the leaf's first key
			at := 100*(b+j) - 50            // between elements b+j-1 and b+j
			for k := 0; k < 40; k++ {
				sets = append(sets, elem(at+k))
			}
			got, err := tr.MapApply(sets, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := append(append(append([]KV(nil), base[:start]...), sets[0]), base[start+1:b+j]...)
			want = append(append(want, sets[1:]...), base[b+j:]...)
			if got.Root() != build(want).Root() {
				t.Fatalf("leaf %d rewritten, run inserted at element %d of the next: root differs from a rebuild", a, j)
			}
			edits++
		}
		start = b
	}
	if edits < 50 {
		t.Fatalf("only %d edits", edits)
	}
}
