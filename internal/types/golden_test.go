package types

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// goldenCfgs are the chunking configurations the golden roots pin: the
// paper's 4 KB leaves, and 256-byte leaves so that boundaries are dense
// and the index levels are tall.
func goldenCfgs() map[string]postree.Config {
	small := postree.DefaultConfig()
	small.LeafQ = 8
	return map[string]postree.Config{"default": postree.DefaultConfig(), "q8": small}
}

// goldenBlob is 1 MiB of seeded bytes with a 64 KiB run of one byte in
// the middle, where the pattern never fires and every cut is forced by
// the maximum leaf size.
func goldenBlob() []byte {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	for i := 512 << 10; i < 576<<10; i++ {
		data[i] = 0x5a
	}
	return data
}

// goldenBytes returns n seeded bytes whose length varies with i.
func goldenBytes(rng *rand.Rand, i, max int) []byte {
	p := make([]byte, (i*37)%max)
	rng.Read(p)
	return p
}

// goldenRoots builds every pinned value under cfg and returns its root
// cid in hex, by name.
func goldenRoots(t *testing.T, cfg postree.Config) map[string]string {
	t.Helper()
	s := store.NewMemStore()
	out := map[string]string{}
	root := func(name string, tr *postree.Tree) {
		r := tr.Root()
		out[name] = hex.EncodeToString(r[:])
	}
	persist := func(name string, v Value) {
		if err := Persist(s, cfg, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		root(name, TreeOf(v))
	}

	// The blob arrives in uneven pieces that straddle the 48-byte
	// window in every way: the chunker carries its state across calls.
	data := goldenBlob()
	b := postree.NewBuilder(s, cfg, postree.KindBlob)
	pieces := []int{1, 47, 48, 49, 4096, 3, 1000, 12345}
	for off, i := 0, 0; off < len(data); i++ {
		n := pieces[i%len(pieces)]
		if off+n > len(data) {
			n = len(data) - off
		}
		b.AppendBytes(data[off : off+n])
		off += n
	}
	blob, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	root("blob", blob)
	// An edit in the middle re-enters the chunker mid-leaf.
	edited, err := blob.SpliceBytes(300<<10, 777, []byte("an edit in the middle of the blob"))
	if err != nil {
		t.Fatal(err)
	}
	root("blob-edit", edited)

	rng := rand.New(rand.NewSource(2))
	m := NewMap()
	for i := 0; i < 10000; i++ {
		if err := m.Set([]byte(fmt.Sprintf("key-%06d", i)), goldenBytes(rng, i, 120)); err != nil {
			t.Fatal(err)
		}
	}
	persist("map", m)
	var sets []postree.KV
	var dels [][]byte
	for i := 0; i < 10000; i += 997 {
		sets = append(sets, postree.KV{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: []byte("edited")})
		dels = append(dels, []byte(fmt.Sprintf("key-%06d", i+5)))
	}
	if err := m.Apply(sets, dels); err != nil {
		t.Fatal(err)
	}
	root("map-edit", m.Tree())

	l := NewList()
	for i := 0; i < 10000; i++ {
		if err := l.Append(goldenBytes(rng, i, 90)); err != nil {
			t.Fatal(err)
		}
	}
	persist("list", l)

	set := NewSet()
	for i := 0; i < 10000; i++ {
		if err := set.Add(goldenBytes(rng, i, 60)); err != nil {
			t.Fatal(err)
		}
	}
	persist("set", set)
	return out
}

// TestChunkingGoldenRoots pins the root cids of values built under the
// shipped chunking parameters. Chunk boundaries decide every cid above
// them, so a changed root here is a chunk-format change: new data would
// no longer deduplicate against chunks already in a store. The literals
// are never re-pinned to make a change pass (see CONTRIBUTING.md).
func TestChunkingGoldenRoots(t *testing.T) {
	want := map[string]map[string]string{
		"default": {
			"blob":      "0bd2bde0d4773e1e52f1ac8e1436b6cfc5586b789cb3ea5d67904dfbfd44ead6",
			"blob-edit": "1c90c423c26935be6633076c912abeb6c43d71f7d33d78c2b360f74638340457",
			"map":       "90ce55d58dd2cad2891d4081feb7c988c18d7ec1c5abc45cc546f3d73e3fb17c",
			"map-edit":  "63168658cab0e89a9b9290d679dec1bc58016709268c9a38bc1a879f57d7b6f1",
			"list":      "648e8823b11b5c7d4ba1cb5e8f9d00063d8f24f737d7b7e0a0098ee235f61438",
			"set":       "c6ca542c8441472577108b0f3c5e720644ee3cf3f0be9d2698d4fcb1e6787418",
		},
		"q8": {
			"blob":      "e0bc8ec8089382bc9ff54b5df513b6b9399553fffc9ca20aa4bbd94442d12cc1",
			"blob-edit": "371efd6b16887f60ec583b9f839839248f824c54d9937ae1340886444872e326",
			"map":       "b33aa6923fd32d679c0b8823affe58b5312adf9c7dc188eabbca72fe54dfb21a",
			"map-edit":  "9b14dcca2db9b297ccb32c296e25b7c717a41a97c8cbcd6d21a78f16eedbf2a2",
			"list":      "c33622af30960e97d71a75902a319870eff05ee21a7da7d340cd459f487c1669",
			"set":       "5953c13e7a5cc5349609df90bef724ba4c982dbbef33f5baedca998135bb9c07",
		},
	}
	for cfgName, cfg := range goldenCfgs() {
		got := goldenRoots(t, cfg)
		if len(got) != len(want[cfgName]) {
			t.Errorf("%s: built %d values, pinned %d", cfgName, len(got), len(want[cfgName]))
		}
		for name, root := range got {
			if w := want[cfgName][name]; root != w {
				t.Errorf("%s/%s: root %s, pinned %s", cfgName, name, root, w)
			}
		}
	}
}
