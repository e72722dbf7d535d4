package postree

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// orderStore hashes the ids of its Puts in the order they arrive.
type orderStore struct {
	*store.MemStore
	order hash.Hash
	puts  int
}

func newOrderStore() *orderStore {
	return &orderStore{MemStore: store.NewMemStore(), order: sha256.New()}
}

func (s *orderStore) Put(c *chunk.Chunk) (bool, error) {
	id := c.ID()
	s.order.Write(id[:])
	s.puts++
	return s.MemStore.Put(c)
}

// importRows encodes n Map elements of about 150 bytes each, in key
// order: the shape of one tabular import.
func importRows(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]byte, n)
	val := make([]byte, 130)
	for i := range rows {
		rng.Read(val)
		rows[i] = EncodeMapElem([]byte(fmt.Sprintf("row-%08d", i)), val)
	}
	return rows
}

// The order in which a build puts its chunks is part of what it
// produces: a FileStore lays them out in that order. The pins were
// taken from a build that sealed each leaf on the caller's goroutine
// as it was cut; the helper must put the same chunks in the same order.
func TestBuilderStoreOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  Kind
		feed  func(b *Builder)
		puts  int
		order string
	}{
		{"blob 4 MiB", KindBlob, func(b *Builder) { b.AppendBytes(randBytes(4<<20, 48)) },
			1008, "a5513e7d78a3da5f03e712bb2329072298460ed795578ab90279131c5177eb84"},
		{"map 25000 rows", KindMap, func(b *Builder) {
			for _, e := range importRows(25000, 48) {
				b.Append(e)
			}
		}, 914, "6e81fd538a9524bbf1ee2a82ac1a6f7ad6bc17d91e3d2832e7b2b3bdb7902f18"},
	} {
		s := newOrderStore()
		b := NewBuilder(s, DefaultConfig(), tc.kind)
		tc.feed(b)
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(s.order.Sum(nil)); s.puts != tc.puts || got != tc.order {
			t.Errorf("%s: %d puts in order %s, want %d in order %s", tc.name, s.puts, got, tc.puts, tc.order)
		}
	}
}

var errLeafPut = errors.New("synthetic leaf put failure")

// failLeafStore fails every Put from the failAt-th leaf on, and counts
// the Puts it is asked for after the first failure.
type failLeafStore struct {
	*store.MemStore
	failAt, leaves, after int
}

func (s *failLeafStore) Put(c *chunk.Chunk) (bool, error) {
	if s.leaves >= s.failAt {
		s.after++
		return false, errLeafPut
	}
	if c.Type() == KindBlob.leafType() {
		if s.leaves++; s.leaves == s.failAt {
			return false, errLeafPut
		}
	}
	return s.MemStore.Put(c)
}

// A store that fails at the 40th leaf stops the build: Finish returns
// that error, the store sees at most two more batches of Puts, and the
// caller stops cutting within the batches already queued behind the
// failing one.
func TestBuilderPipelineStopsOnPutError(t *testing.T) {
	const failAt, piece = 40, 4 << 10
	data := randBytes(8<<20, 49)
	cfg := DefaultConfig()
	s := &failLeafStore{MemStore: store.NewMemStore(), failAt: failAt}
	b := NewBuilder(s, cfg, KindBlob)
	fed := 0
	for ; fed < len(data) && b.err == nil; fed += piece {
		b.AppendBytes(data[fed : fed+piece])
	}
	if _, err := b.Finish(); !errors.Is(err, errLeafPut) {
		t.Fatalf("Finish = %v, want %v", err, errLeafPut)
	}
	if s.after > 2*sealBatch {
		t.Errorf("%d Puts after the failing one, want at most %d", s.after, 2*sealBatch)
	}
	// The failing leaf's batch is sealing, one more waits in the
	// channel and the caller fills a third: it notices at the leaf
	// after those.
	cuts := rollsum.ScanBoundaries(cfg.LeafQ, cfg.maxLeaf(), data, nil)
	if limit := cuts[failAt+3*sealBatch] + piece; fed > limit {
		t.Errorf("caller fed %d bytes; a failure at leaf %d should stop it by %d", fed, failAt, limit)
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every way a build ends joins what it started.
func TestBuilderLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	data := randBytes(2<<20, 50)
	cfg := DefaultConfig()

	b := NewBuilder(store.NewMemStore(), cfg, KindBlob)
	b.AppendBytes(data)
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after a build", base)

	b = NewBuilder(&failLeafStore{MemStore: store.NewMemStore(), failAt: 40}, cfg, KindBlob)
	b.AppendBytes(data)
	if _, err := b.Finish(); !errors.Is(err, errLeafPut) {
		t.Fatalf("Finish over a failing store = %v, want %v", err, errLeafPut)
	}
	waitGoroutines(t, "after a failed store", base)

	rows := importRows(5000, 50)
	b = NewBuilder(store.NewMemStore(), cfg, KindMap)
	for _, e := range rows {
		b.Append(e)
	}
	b.Append(rows[0])
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish accepted an element out of order")
	}
	waitGoroutines(t, "after an element out of order", base)

	var run []byte
	for _, e := range rows {
		run = appendListElem(run, e)
	}
	run = append(run, 0xff, 0xff) // a torn length prefix
	if _, err := Empty(store.NewMemStore(), cfg, KindList).spliceAt(0, 0, run); err == nil {
		t.Fatal("spliceAt accepted a torn element")
	}
	waitGoroutines(t, "after a torn element", base)
}

// A build of one leaf — every small value — seals at Finish on the
// caller's goroutine: it starts no helper, whose goroutine and channel
// would show here. The serial build took 11; the open index node's
// buffer, grown once instead of once per append, took 9; the chunker,
// which keeps no window of its own, takes 8.
func TestBuilderOneLeafAllocs(t *testing.T) {
	data := randBytes(1000, 51)
	cfg := DefaultConfig()
	s := store.NewMemStore()
	allocs := testing.AllocsPerRun(100, func() {
		b := NewBuilder(s, cfg, KindBlob)
		b.AppendBytes(data)
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 8 {
		t.Errorf("one-leaf build: %.0f allocs, want exactly 8", allocs)
	}
}

// A 25 000-row Map build (814 leaves, 7 index nodes) pays a payload and
// a chunk per node, and no copy of each leaf's last key: at most the
// 1696 of the serial build, whose open index nodes grew by append's
// steps. The helper's goroutine and channel cost a few; the runtime
// adds one now and then, so this is a ceiling, not an exact count.
func TestBuilderMapAllocs(t *testing.T) {
	rows := importRows(25000, 52)
	cfg := DefaultConfig()
	s := store.NewMemStore()
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(s, cfg, KindMap)
		for _, e := range rows {
			b.Append(e)
		}
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1696 {
		t.Errorf("25 000-row map build: %.0f allocs, want at most 1696", allocs)
	}
}
