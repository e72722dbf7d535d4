package postree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

func buildBlob(t *testing.T, s store.Store, data []byte) *Tree {
	t.Helper()
	b := NewBuilder(s, testConfig(), KindBlob)
	b.AppendBytes(data)
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randBytes(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// blobBytes reads a Blob tree through Bytes and checks the result
// against one ReadAt of the whole range: the two readers share nothing
// above the chunk reads, so each is the other's oracle.
func blobBytes(tb testing.TB, tr *Tree) []byte {
	tb.Helper()
	got, err := tr.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	all := make([]byte, tr.Count())
	if n, err := tr.ReadAt(all, 0); err != nil || n != len(all) || !bytes.Equal(got, all) {
		tb.Fatalf("Bytes returned %d bytes, a full ReadAt %d (err %v); equal: %v", len(got), n, err, bytes.Equal(got, all))
	}
	return got
}

func TestBlobRoundTrip(t *testing.T) {
	s := store.NewMemStore()
	data := randBytes(64<<10, 1)
	tr := buildBlob(t, s, data)
	if tr.Count() != uint64(len(data)) {
		t.Fatalf("count %d, want %d", tr.Count(), len(data))
	}
	if got := blobBytes(t, tr); !bytes.Equal(got, data) {
		t.Fatal("blob content mismatch")
	}
}

func TestBlobReadAt(t *testing.T) {
	s := store.NewMemStore()
	data := randBytes(32<<10, 2)
	tr := buildBlob(t, s, data)
	for _, tc := range []struct{ off, n int }{
		{0, 100}, {1000, 5000}, {len(data) - 10, 10}, {len(data) - 5, 100},
	} {
		p := make([]byte, tc.n)
		n, err := tr.ReadAt(p, uint64(tc.off))
		if err != nil {
			t.Fatal(err)
		}
		want := tc.n
		if tc.off+tc.n > len(data) {
			want = len(data) - tc.off
		}
		if n != want || !bytes.Equal(p[:n], data[tc.off:tc.off+n]) {
			t.Fatalf("ReadAt(%d,%d): n=%d want %d", tc.off, tc.n, n, want)
		}
	}
}

func TestBlobSpliceAgainstModel(t *testing.T) {
	s := store.NewMemStore()
	model := randBytes(40<<10, 3)
	tr := buildBlob(t, s, model)
	rng := rand.New(rand.NewSource(4))

	for round := 0; round < 25; round++ {
		off := rng.Intn(len(model) + 1)
		del := rng.Intn(200)
		if off+del > len(model) {
			del = len(model) - off
		}
		ins := randBytes(rng.Intn(300), int64(round+100))
		var err error
		tr, err = tr.SpliceBytes(uint64(off), uint64(del), ins)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		next := make([]byte, 0, len(model)-del+len(ins))
		next = append(next, model[:off]...)
		next = append(next, ins...)
		next = append(next, model[off+del:]...)
		model = next
		if tr.Count() != uint64(len(model)) {
			t.Fatalf("round %d: count %d, want %d", round, tr.Count(), len(model))
		}
	}
	if got := blobBytes(t, tr); !bytes.Equal(got, model) {
		t.Fatal("blob diverged from model after splices")
	}
	// History independence for blobs too.
	fresh := buildBlob(t, s, model)
	if fresh.Root() != tr.Root() {
		t.Fatal("spliced blob differs from fresh build of same content")
	}
}

func TestBlobSpliceLocalizesWrites(t *testing.T) {
	s := store.NewMemStore()
	data := randBytes(256<<10, 5)
	tr := buildBlob(t, s, data)
	st, _ := tr.TreeStats()
	before := s.Stats()
	// A small in-place edit in the middle.
	tr2, err := tr.SpliceBytes(128<<10, 16, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if newBytes := after.Bytes - before.Bytes; newBytes > st.Bytes/8 {
		t.Fatalf("middle edit wrote %d of %d tree bytes; boundary resync failed", newBytes, st.Bytes)
	}
	if tr2.Count() != tr.Count() {
		t.Fatalf("count changed: %d vs %d", tr2.Count(), tr.Count())
	}
}

func TestBlobAppendGrows(t *testing.T) {
	s := store.NewMemStore()
	tr := Empty(s, testConfig(), KindBlob)
	var model []byte
	for i := 0; i < 20; i++ {
		piece := randBytes(1000, int64(i))
		var err error
		tr, err = tr.SpliceBytes(tr.Count(), 0, piece)
		if err != nil {
			t.Fatal(err)
		}
		model = append(model, piece...)
	}
	if got := blobBytes(t, tr); !bytes.Equal(got, model) {
		t.Fatal("append sequence mismatch")
	}
}

// Repeated content: no patterns fire, chunks are forced at max size, but
// dedup still collapses them (§4.3.3).
func TestRepeatedContent(t *testing.T) {
	s := store.NewMemStore()
	data := make([]byte, 512<<10) // all zeros
	tr := buildBlob(t, s, data)
	st, err := tr.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	// All leaves are identical so the store holds very few of them.
	if got := s.Stats().Chunks; got > 5 {
		t.Fatalf("repeated content produced %d distinct chunks", got)
	}
	if st.Leaves < 100 {
		t.Fatalf("logical leaves %d suspiciously few", st.Leaves)
	}
	if got := blobBytes(t, tr); !bytes.Equal(got, data) {
		t.Fatal("repeated content round trip failed")
	}
}

func TestListSpliceAgainstModel(t *testing.T) {
	s := store.NewMemStore()
	var model [][]byte
	b := NewBuilder(s, testConfig(), KindList)
	for i := 0; i < 1000; i++ {
		e := []byte(fmt.Sprintf("element-%04d-%d", i, i*7))
		model = append(model, e)
		b.Append(EncodeListElem(e))
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 20; round++ {
		at := rng.Intn(len(model) + 1)
		del := rng.Intn(20)
		if at+del > len(model) {
			del = len(model) - at
		}
		var ins [][]byte
		for i := 0; i < rng.Intn(20); i++ {
			ins = append(ins, []byte(fmt.Sprintf("ins-%d-%d", round, i)))
		}
		tr, err = tr.ListSplice(uint64(at), uint64(del), ins)
		if err != nil {
			t.Fatal(err)
		}
		next := make([][]byte, 0, len(model)-del+len(ins))
		next = append(next, model[:at]...)
		next = append(next, ins...)
		next = append(next, model[at+del:]...)
		model = next
	}
	if tr.Count() != uint64(len(model)) {
		t.Fatalf("count %d, want %d", tr.Count(), len(model))
	}
	it := tr.Elems()
	for i := 0; it.Next(); i++ {
		if !bytes.Equal(SetElemBody(it.Elem()), model[i]) {
			t.Fatalf("element %d mismatch", i)
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	for _, i := range []int{0, len(model) / 2, len(model) - 1} {
		enc, err := tr.GetAt(uint64(i))
		if err != nil || !bytes.Equal(SetElemBody(enc), model[i]) {
			t.Fatalf("GetAt(%d) mismatch: %v", i, err)
		}
	}
}

// Property: for any two byte strings, building a blob and reading it
// back is the identity, and equal content means equal roots.
func TestQuickBlobIdentity(t *testing.T) {
	s := store.NewMemStore()
	f := func(data []byte) bool {
		b := NewBuilder(s, testConfig(), KindBlob)
		b.AppendBytes(data)
		tr, err := b.Finish()
		if err != nil {
			return false
		}
		if got := blobBytes(t, tr); !bytes.Equal(got, data) {
			return false
		}
		b2 := NewBuilder(s, testConfig(), KindBlob)
		b2.AppendBytes(data)
		tr2, err := b2.Finish()
		return err == nil && tr2.Root() == tr.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random splice equals rebuild-from-scratch of the spliced
// content (history independence under arbitrary edits).
func TestQuickSpliceEqualsRebuild(t *testing.T) {
	s := store.NewMemStore()
	f := func(seed int64, off16, del16, insLen16 uint16) bool {
		base := randBytes(8<<10, seed)
		off := int(off16) % (len(base) + 1)
		del := int(del16) % 512
		if off+del > len(base) {
			del = len(base) - off
		}
		ins := randBytes(int(insLen16)%512, seed+1)
		tr := func() *Tree {
			b := NewBuilder(s, testConfig(), KindBlob)
			b.AppendBytes(base)
			tr, err := b.Finish()
			if err != nil {
				return nil
			}
			tr2, err := tr.SpliceBytes(uint64(off), uint64(del), ins)
			if err != nil {
				return nil
			}
			return tr2
		}()
		if tr == nil {
			return false
		}
		want := append(append(append([]byte(nil), base[:off]...), ins...), base[off+del:]...)
		b := NewBuilder(s, testConfig(), KindBlob)
		b.AppendBytes(want)
		fresh, err := b.Finish()
		return err == nil && fresh.Root() == tr.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlobSpliceEqualsRebuild: window-local re-chunking of byte
// splices — in place, growing, shrinking, at and around leaf edges, in
// the last leaf, across leaves, with forced cuts common — lands on the
// chunks a Builder makes of the same bytes.
func TestBlobSpliceEqualsRebuild(t *testing.T) {
	for ci, cfg := range exactConfigs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + ci)))
			s := store.NewMemStore()
			rebuild := func(data []byte) *Tree {
				b := NewBuilder(s, cfg, KindBlob)
				b.AppendBytes(data)
				tr, err := b.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			model := randBytes(24<<10, int64(ci))
			tr := rebuild(model)
			for step := 0; step < 200; step++ {
				leaves, err := tr.leafEntries()
				if err != nil {
					t.Fatal(err)
				}
				off := rng.Intn(len(model) + 1)
				if rng.Intn(2) == 0 { // within a window of a leaf's start or end
					var pos uint64
					for _, l := range leaves[:rng.Intn(len(leaves)+1)] {
						pos += l.count
					}
					off = int(pos) + rng.Intn(2*48+1) - 48
				}
				if rng.Intn(8) == 0 {
					off = len(model) - rng.Intn(64) // the last leaf, or an append
				}
				if off < 0 {
					off = 0
				}
				if off > len(model) {
					off = len(model)
				}
				del := rng.Intn(100)
				if rng.Intn(10) == 0 {
					del = rng.Intn(3000) // across leaves
				}
				if off+del > len(model) {
					del = len(model) - off
				}
				ins := randBytes(rng.Intn(100), rng.Int63())
				switch rng.Intn(4) {
				case 0:
					ins = randBytes(del, rng.Int63()) // in place
				case 1:
					ins = nil
				}
				if tr, err = tr.SpliceBytes(uint64(off), uint64(del), ins); err != nil {
					t.Fatal(err)
				}
				next := append([]byte(nil), model[:off]...)
				next = append(next, ins...)
				model = append(next, model[off+del:]...)
				if want := rebuild(model); tr.Root() != want.Root() || tr.Count() != want.Count() {
					t.Fatalf("step %d: splice(off %d, del %d, ins %d): edited root %s, rebuilt root %s",
						step, off, del, len(ins), tr.Root().Short(), want.Root().Short())
				}
				if len(model) < 8<<10 {
					model = append(model, randBytes(16<<10, rng.Int63())...)
					tr = rebuild(model)
				}
			}
			reachableChunks(t, s, tr.Root())
		})
	}
}

// TestBlobSpliceRollsTheDelta: a 128-byte in-place edit of a 256 KiB
// page that moves no boundary rolls the edit and a window either side
// of it, not the leaf.
func TestBlobSpliceRollsTheDelta(t *testing.T) {
	s := store.NewMemStore()
	b := NewBuilder(s, DefaultConfig(), KindBlob)
	b.AppendBytes(randBytes(256<<10, 21))
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before, err := tr.leafEntries()
	if err != nil {
		t.Fatal(err)
	}
	quiet := 0
	for i := 0; i < 20; i++ {
		off := uint64(10<<10 + i*12<<10)
		var next *Tree
		rolled := rolledDuring(func() {
			if next, err = tr.SpliceBytes(off, 128, randBytes(128, int64(i))); err != nil {
				t.Fatal(err)
			}
		})
		after, err := next.leafEntries()
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			continue // the edit fired or removed a boundary
		}
		moved := false
		var pa, pb uint64
		for j := range after {
			if pb <= off && off < pb+before[j].count && before[j].count >= 8<<12 {
				moved = true // a leaf the forced cut ended is rolled in full
			}
			pa, pb = pa+after[j].count, pb+before[j].count
			moved = moved || pa != pb
		}
		if moved {
			continue
		}
		quiet++
		if rolled > 1<<10 {
			t.Fatalf("in-place 128-byte edit at %d rolled %d bytes; want at most 1 KiB", off, rolled)
		}
	}
	if quiet < 10 {
		t.Fatalf("only %d of 20 edits left the boundaries alone; the bound went unchecked", quiet)
	}
}

// The tree is a function of the bytes, not of how AppendBytes was
// called: random, pattern-free (every cut forced) and low-entropy
// content fed whole, in large slices and in odd small ones lands on one
// root and one stored chunk count.
func TestBlobBuildIndependentOfFeedSlicing(t *testing.T) {
	repeat := make([]byte, 1<<20)
	for i := range repeat {
		repeat[i] = "abcd"[i%4]
	}
	cases := map[string][]byte{
		"empty":  nil,
		"tiny":   []byte("hello"),
		"random": randBytes(2<<20+12345, 20),
		"zeros":  make([]byte, 1<<20),
		"repeat": repeat,
	}
	for name, data := range cases {
		whole := store.NewMemStore()
		want := buildBlob(t, whole, data)
		for _, step := range []int{1 << 20, 64 << 10, 7777} {
			s := store.NewMemStore()
			b := NewBuilder(s, testConfig(), KindBlob)
			for off := 0; off < len(data); off += step {
				b.AppendBytes(data[off:min(off+step, len(data))])
			}
			got, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got.Root() != want.Root() || got.Count() != want.Count() || got.Height() != want.Height() {
				t.Fatalf("%s step=%d: tree differs from the one-call build", name, step)
			}
			if s.Stats().Chunks != whole.Stats().Chunks {
				t.Fatalf("%s step=%d: %d chunks stored, one-call build stored %d", name, step, s.Stats().Chunks, whole.Stats().Chunks)
			}
		}
	}
}

// errAfterStore fails every Put after the first n.
type errAfterStore struct {
	*store.MemStore
	n    int
	seen int
}

func (s *errAfterStore) Put(c *chunk.Chunk) (bool, error) {
	s.seen++
	if s.seen > s.n {
		return false, fmt.Errorf("synthetic put failure")
	}
	return s.MemStore.Put(c)
}

// A store failure part-way through a build must surface from Finish.
func TestBuilderPutError(t *testing.T) {
	s := &errAfterStore{MemStore: store.NewMemStore(), n: 80}
	b := NewBuilder(s, DefaultConfig(), KindBlob)
	b.AppendBytes(randBytes(2<<20, 23))
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish succeeded despite store failures")
	}
}

// Per built leaf the Builder pays the payload copy, the chunk header
// and the entries slot. The ceiling is loose enough to absorb
// slice-growth amortization, tight enough that a goroutine, channel or
// staging buffer per leaf blows straight through it.
func TestBuilderAllocsPinned(t *testing.T) {
	data := randBytes(1<<20, 24)
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(store.NewMemStore(), cfg, KindBlob)
		b.AppendBytes(data)
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	nchunks := 1 << 20 / 4096 // ~256 leaves plus a few index nodes
	if perChunk := allocs / float64(nchunks); perChunk > 6 {
		t.Fatalf("build allocates %.1f allocs per chunk (%.0f total); the Builder must stay allocation-lean", perChunk, allocs)
	}
}
