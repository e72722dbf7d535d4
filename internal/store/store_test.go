package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"forkbase/internal/chunk"
)

// storeFactories lets every conformance test run against each
// implementation.
func storeFactories(t *testing.T) map[string]func() Store {
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"file": func() Store {
			fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
		"pool": func() Store {
			return NewPool([]Store{NewMemStore(), NewMemStore(), NewMemStore()})
		},
		"cache": func() Store {
			return NewCache(NewMemStore(), 1<<20)
		},
		"cache-file": func() Store {
			fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewCache(Verified(fs), 1<<20)
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()

			c := chunk.New(chunk.TypeBlob, []byte("payload"))
			if s.Has(c.ID()) {
				t.Fatal("Has before Put")
			}
			if _, err := s.Get(c.ID()); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get before Put: %v, want ErrNotFound", err)
			}
			dup, err := s.Put(c)
			if err != nil || dup {
				t.Fatalf("first Put: dup=%v err=%v", dup, err)
			}
			dup, err = s.Put(c)
			if err != nil || !dup {
				t.Fatalf("second Put: dup=%v err=%v, want dedup", dup, err)
			}
			got, err := s.Get(c.ID())
			if err != nil {
				t.Fatal(err)
			}
			if got.ID() != c.ID() || got.Type() != chunk.TypeBlob {
				t.Fatal("Get returned wrong chunk")
			}
			if !s.Has(c.ID()) {
				t.Fatal("Has after Put")
			}
			st := s.Stats()
			if st.Puts < 2 || st.Dups < 1 {
				t.Fatalf("stats not tracking: %+v", st)
			}
		})
	}
}

func TestStoreConcurrent(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 200; i++ {
						data := make([]byte, 64)
						rng.Read(data)
						c := chunk.New(chunk.TypeBlob, data)
						if _, err := s.Put(c); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.Get(c.ID()); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestFileStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var ids []chunk.ID
	for i := 0; i < 100; i++ {
		c := chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("chunk-%04d-%s", i, string(make([]byte, 100)))))
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	for i, id := range ids {
		c, err := fs2.Get(id)
		if err != nil {
			t.Fatalf("chunk %d lost after recovery: %v", i, err)
		}
		if c.ID() != id {
			t.Fatalf("chunk %d corrupt after recovery", i)
		}
	}
	if got := fs2.Stats().Chunks; got != 100 {
		t.Fatalf("recovered %d chunks, want 100", got)
	}
	// Dedup survives recovery.
	dup, err := fs2.Put(chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("chunk-%04d-%s", 0, string(make([]byte, 100))))))
	if err != nil || !dup {
		t.Fatalf("dedup after recovery: dup=%v err=%v", dup, err)
	}
}

func TestFileStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := chunk.New(chunk.TypeBlob, []byte("good"))
	if _, err := fs.Put(good); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage simulating a torn write.
	seg := filepath.Join(dir, "seg-000000.log")
	if err := appendFile(seg, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, err := fs2.Get(good.ID()); err != nil {
		t.Fatalf("intact record lost: %v", err)
	}
	// The store stays writable after truncating the torn tail.
	c2 := chunk.New(chunk.TypeBlob, []byte("after-recovery"))
	if _, err := fs2.Put(c2); err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Get(c2.ID()); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	victim := chunk.New(chunk.TypeBlob, []byte("soon to be damaged on disk"))
	intact := chunk.New(chunk.TypeBlob, []byte("left alone"))
	for _, c := range []*chunk.Chunk{victim, intact} {
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first record's body (offset 8 is the
	// type byte, +4 lands mid-payload), simulating disk corruption.
	seg := filepath.Join(dir, "seg-000000.log")
	f, err := os.OpenFile(seg, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, recordHeader+4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = fs.Get(victim.ID())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of damaged chunk: %v, want ErrCorrupt", err)
	}
	if got := fmt.Sprint(err); !strings.Contains(got, "seg 0") {
		t.Fatalf("corruption error lacks location: %q", got)
	}
	// Undamaged records on the same segment still read fine.
	if _, err := fs.Get(intact.ID()); err != nil {
		t.Fatalf("intact chunk unreadable: %v", err)
	}
}

func TestFileStoreTornTailAfterRotate(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var ids []chunk.ID
	for i := 0; i < 20; i++ {
		c := chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, 200)))))
		if _, err := fs.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected rotation to have produced several segments, got %v (%v)", segs, err)
	}
	// Tear the newest segment's tail.
	sort.Strings(segs)
	if err := appendFile(segs[len(segs)-1], []byte{9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	for i, id := range ids {
		if _, err := fs2.Get(id); err != nil {
			t.Fatalf("chunk %d lost after torn-tail recovery: %v", i, err)
		}
	}
	// The append point is clean: new writes land and read back.
	c := chunk.New(chunk.TypeBlob, []byte("written after recovery"))
	if _, err := fs2.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Get(c.ID()); err != nil {
		t.Fatal(err)
	}
}

// flakyStore serves Get with an injected error once enabled; Put and
// the rest pass through.
type flakyStore struct {
	Store
	fail  bool
	errIn error
}

func (f *flakyStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	if f.fail {
		return nil, f.errIn
	}
	return f.Store.Get(id)
}

// TestPoolGetWrapsMemberError: a home member that fails (not one that
// merely lacks the chunk) surfaces its error wrapped, never as
// ErrNotFound; a chunk the home member lacks is ErrNotFound.
func TestPoolGetWrapsMemberError(t *testing.T) {
	boom := errors.New("member i/o error")
	members := make([]Store, 3)
	flaky := make([]*flakyStore, 3)
	for i := range members {
		flaky[i] = &flakyStore{Store: NewMemStore(), errIn: boom}
		members[i] = flaky[i]
	}
	p := NewPool(members)
	c := chunk.New(chunk.TypeBlob, []byte("placed"))
	if _, err := p.Put(c); err != nil {
		t.Fatal(err)
	}
	h := p.Home(c.ID())
	flaky[h].fail = true
	_, err := p.Get(c.ID())
	if !errors.Is(err, boom) || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get with failing home member: %v, want wrapped member error", err)
	}
	flaky[h].fail = false
	missing := chunk.New(chunk.TypeBlob, []byte("never put"))
	if _, err := p.Get(missing.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a missing chunk: %v, want ErrNotFound", err)
	}
}

// TestPoolPlacement: each chunk lives on its Home member and nowhere
// else, and cid placement spreads chunks roughly uniformly.
func TestPoolPlacement(t *testing.T) {
	members := []Store{NewMemStore(), NewMemStore(), NewMemStore(), NewMemStore()}
	p := NewPool(members)
	var ids []chunk.ID
	for i := 0; i < 400; i++ {
		c := chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("item-%d", i)))
		if _, err := p.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	for _, id := range ids {
		h := p.Home(id)
		for i, m := range members {
			if m.Has(id) != (i == h) {
				t.Fatalf("chunk on member %d: %v, home is %d", i, m.Has(id), h)
			}
		}
		if !p.Has(id) {
			t.Fatal("pool lost a chunk it placed")
		}
	}
	for i, m := range members {
		got := m.Stats().Chunks
		if got < 50 || got > 150 {
			t.Fatalf("member %d holds %d chunks, want around 100", i, got)
		}
	}
}

func TestGetVerified(t *testing.T) {
	s := NewMemStore()
	c := chunk.New(chunk.TypeBlob, []byte("data"))
	s.Put(c)
	if _, err := GetVerified(s, c.ID()); err != nil {
		t.Fatal(err)
	}
	// A store that serves the wrong chunk for a cid must be caught.
	evil := &misdirectingStore{Store: s, wrong: c}
	other := chunk.New(chunk.TypeBlob, []byte("other"))
	if _, err := GetVerified(evil, other.ID()); err == nil {
		t.Fatal("GetVerified accepted substituted content")
	}
}

type misdirectingStore struct {
	Store
	wrong *chunk.Chunk
}

func (m *misdirectingStore) Get(id chunk.ID) (*chunk.Chunk, error) { return m.wrong, nil }

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}
