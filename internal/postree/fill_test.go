package postree

// Iteration over a tree whose store can fetch what it lacks (a Filler):
// it asks for a fill only on a miss, names the missing node and the
// siblings ahead of it, and leaves point reads to fetch their one path.

import (
	"bytes"
	"slices"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// fillStore holds some of a tree's chunks and fetches the rest from
// remote the two ways a chunk-synced client does: Get of a missing
// chunk copies that chunk (a point read's fetch), FillSubtrees copies
// whatever is missing under the roots it is given.
type fillStore struct {
	*store.MemStore
	remote  *store.MemStore
	fetched int          // chunks Get copied
	fills   [][]chunk.ID // FillSubtrees calls, by roots
	levels  []int
}

func (s *fillStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	if c, err := s.MemStore.Get(id); err == nil {
		return c, nil
	}
	c, err := s.remote.Get(id)
	if err != nil {
		return nil, err
	}
	s.fetched++
	_, err = s.MemStore.Put(c)
	return c, err
}

func (s *fillStore) GetLocal(id chunk.ID) (*chunk.Chunk, error) { return s.MemStore.Get(id) }

func (s *fillStore) FillSubtrees(roots []chunk.ID, level int) error {
	s.fills = append(s.fills, append([]chunk.ID(nil), roots...))
	s.levels = append(s.levels, level)
	for len(roots) > 0 {
		id := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		c, err := s.MemStore.Get(id)
		if err != nil {
			if c, err = s.remote.Get(id); err != nil {
				return err
			}
			if _, err := s.MemStore.Put(c); err != nil {
				return err
			}
		}
		if isIndex(c.Type()) {
			if roots, err = appendChildIDs(roots, c.Data()); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillFixture builds a 256 KiB page in a remote store and attaches it
// to an empty fillStore.
func fillFixture(t *testing.T) (*Tree, *fillStore, []byte) {
	t.Helper()
	remote := store.NewMemStore()
	data := randBytes(256<<10, 7)
	src := NewBuilder(remote, DefaultConfig(), KindBlob)
	src.AppendBytes(data)
	tr, err := src.Finish()
	if err != nil {
		t.Fatal(err)
	}
	fs := &fillStore{MemStore: store.NewMemStore(), remote: remote}
	return Attach(fs, tr.cfg, KindBlob, tr.Root(), tr.Count(), tr.Height()), fs, data
}

// hold copies every node of tr except the ones named into the local
// side of fs.
func (s *fillStore) hold(t *testing.T, tr *Tree, except ...chunk.ID) {
	t.Helper()
	skip := map[chunk.ID]bool{}
	for _, id := range except {
		skip[id] = true
	}
	if err := tr.Walk(func(id chunk.ID, _ int) (bool, error) {
		c, err := s.remote.Get(id)
		if err == nil && !skip[id] {
			_, err = s.MemStore.Put(c)
		}
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafIterFillsOnlyItsMisses(t *testing.T) {
	t.Run("Cold", func(t *testing.T) {
		tr, fs, data := fillFixture(t)
		if got := blobBytes(t, tr); !bytes.Equal(got, data) {
			t.Fatal("content mismatch")
		}
		// Bytes made the one fill; blobBytes' ReadAt found everything.
		if len(fs.fills) != 1 || len(fs.fills[0]) != 1 || fs.fills[0][0] != tr.Root() || fs.levels[0] != tr.Height() {
			t.Fatalf("fills %v at levels %v; want one, of the root at level %d", fs.fills, fs.levels, tr.Height())
		}
		if fs.fetched != 0 {
			t.Fatalf("iteration fetched %d chunks one at a time", fs.fetched)
		}
	})
	t.Run("Warm", func(t *testing.T) {
		tr, fs, data := fillFixture(t)
		fs.hold(t, tr)
		if got := blobBytes(t, tr); !bytes.Equal(got, data) {
			t.Fatal("content mismatch")
		}
		if len(fs.fills) != 0 || fs.fetched != 0 {
			t.Fatalf("a complete tree made %d fills and %d fetches", len(fs.fills), fs.fetched)
		}
	})
	t.Run("OneLeafMissing", func(t *testing.T) {
		// The second leaf under the root's first child: the fill names
		// it and the leaves after it under the same parent, no others.
		tr, fs, data := fillFixture(t)
		if tr.Height() != 3 {
			t.Fatalf("height %d; the case is about a leaf under an inner index node", tr.Height())
		}
		root, err := fs.remote.Get(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		first, _, err := (&indexCursor{p: root.Data()}).next()
		if err != nil {
			t.Fatal(err)
		}
		parent, err := fs.remote.Get(first.id)
		if err != nil {
			t.Fatal(err)
		}
		kids, err := IndexChildIDs(parent.Data())
		if err != nil || len(kids) < 3 {
			t.Fatalf("inner node with %d children: %v", len(kids), err)
		}
		fs.hold(t, tr, kids[1])
		if got := blobBytes(t, tr); !bytes.Equal(got, data) {
			t.Fatal("content mismatch")
		}
		if len(fs.fills) != 1 || fs.levels[0] != 1 || !slices.Equal(fs.fills[0], kids[1:]) {
			t.Fatalf("%d fills (levels %v); want one, at level 1, of the missing leaf and the %d after it", len(fs.fills), fs.levels, len(kids)-2)
		}
		if fs.fetched != 0 {
			t.Fatalf("iteration fetched %d chunks one at a time", fs.fetched)
		}
	})
	t.Run("PointRead", func(t *testing.T) {
		tr, fs, data := fillFixture(t)
		p := make([]byte, 8)
		if _, err := tr.ReadAt(p, 100_001); err != nil || !bytes.Equal(p, data[100_001:100_009]) {
			t.Fatalf("ReadAt: %v", err)
		}
		if len(fs.fills) != 0 || fs.fetched != tr.Height() {
			t.Fatalf("an 8-byte read made %d fills and %d fetches; want none and one per level, %d", len(fs.fills), fs.fetched, tr.Height())
		}
	})
}

// hasCounter counts Has calls on a store that cannot fill.
type hasCounter struct {
	*store.MemStore
	has int
}

func (s *hasCounter) Has(id chunk.ID) bool {
	s.has++
	return s.MemStore.Has(id)
}

// TestLeafIterAsksNothingOfALocalStore: over a store that is not a
// Filler, iteration reads the nodes and nothing else.
func TestLeafIterAsksNothingOfALocalStore(t *testing.T) {
	hc := &hasCounter{MemStore: store.NewMemStore()}
	b := NewBuilder(hc, DefaultConfig(), KindBlob)
	b.AppendBytes(randBytes(256<<10, 7))
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	hc.has = 0
	if _, err := tr.Bytes(); err != nil {
		t.Fatal(err)
	}
	if hc.has != 0 {
		t.Fatalf("iteration over a local store made %d Has calls", hc.has)
	}
}
