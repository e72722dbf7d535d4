package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"forkbase/internal/chunk"
)

func TestCacheHitMissCounters(t *testing.T) {
	inner := NewMemStore()
	c := chunk.New(chunk.TypeBlob, []byte("cached payload"))
	if _, err := inner.Put(c); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(inner, 1<<20)
	defer cache.Close()

	for i := 0; i < 3; i++ {
		got, err := cache.Get(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != c.ID() {
			t.Fatal("cache returned wrong chunk")
		}
	}
	s := cache.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", s.CacheHits, s.CacheMisses)
	}
	if r := s.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("HitRatio = %v, want 2/3", r)
	}
	// The backing store saw exactly one Get; the total at the cache
	// layer still counts every call.
	if inner.Stats().Gets != 1 {
		t.Fatalf("inner Gets = %d, want 1", inner.Stats().Gets)
	}
	if s.Gets != 3 {
		t.Fatalf("cache-layer Gets = %d, want 3", s.Gets)
	}
}

func TestCacheWriteThrough(t *testing.T) {
	inner := NewMemStore()
	cache := NewCache(inner, 1<<20)
	defer cache.Close()
	c := chunk.New(chunk.TypeBlob, []byte("write through"))
	if dup, err := cache.Put(c); err != nil || dup {
		t.Fatalf("Put: dup=%v err=%v", dup, err)
	}
	if !inner.Has(c.ID()) {
		t.Fatal("Put did not reach the backing store")
	}
	// The write warmed the cache: the first read is already a hit.
	if _, err := cache.Get(c.ID()); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.CacheHits != 1 || s.CacheMisses != 0 {
		t.Fatalf("hits=%d misses=%d after write-then-read, want 1/0", s.CacheHits, s.CacheMisses)
	}
}

func TestCacheEvictionRespectsBudget(t *testing.T) {
	inner := NewMemStore()
	const budget = cacheShards * 256
	cache := NewCache(inner, budget)
	defer cache.Close()
	var ids []chunk.ID
	for i := 0; i < 200; i++ {
		c := chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("entry-%04d-%s", i, string(make([]byte, 100)))))
		if _, err := cache.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	s := cache.Stats()
	if s.CacheBytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", s.CacheBytes, budget)
	}
	if s.CacheEvictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
	// Evicted entries are still served — from the backing store.
	for _, id := range ids {
		if _, err := cache.Get(id); err != nil {
			t.Fatalf("chunk lost after eviction: %v", err)
		}
	}
}

func TestCacheOversizedChunkNotCached(t *testing.T) {
	inner := NewMemStore()
	cache := NewCache(inner, cacheShards*64) // 64-byte shard budget
	defer cache.Close()
	big := chunk.New(chunk.TypeBlob, make([]byte, 1024))
	if _, err := cache.Put(big); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.CacheBytes != 0 {
		t.Fatalf("oversized chunk was cached (%d bytes)", s.CacheBytes)
	}
	if _, err := cache.Get(big.ID()); err != nil {
		t.Fatalf("oversized chunk unreadable: %v", err)
	}
}

func TestCacheZeroBudget(t *testing.T) {
	cache := NewCache(NewMemStore(), 0)
	defer cache.Close()
	c := chunk.New(chunk.TypeBlob, []byte("uncacheable"))
	if _, err := cache.Put(c); err != nil {
		t.Fatal(err)
	}
	got, err := cache.Get(c.ID())
	if err != nil || got.ID() != c.ID() {
		t.Fatalf("zero-budget cache must still serve reads: %v", err)
	}
	if s := cache.Stats(); s.CacheBytes != 0 || s.CacheHits != 0 {
		t.Fatalf("zero-budget cache held data: %+v", s)
	}
}

// TestCacheConcurrent hammers one cache with mixed Put/Get from many
// goroutines over a shared key set; run under -race this checks the
// sharded cache's locking.
func TestCacheConcurrent(t *testing.T) {
	for _, inner := range map[string]Store{"mem": NewMemStore()} {
		cache := NewCache(inner, cacheShards*2048) // small: force eviction churn
		shared := make([]*chunk.Chunk, 64)
		for i := range shared {
			shared[i] = chunk.New(chunk.TypeBlob, []byte(fmt.Sprintf("shared-%04d", i)))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 500; i++ {
					c := shared[rng.Intn(len(shared))]
					if rng.Intn(4) == 0 {
						if _, err := cache.Put(c); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					got, err := cache.Get(c.ID())
					if err == ErrNotFound {
						continue // not yet written by anyone
					}
					if err != nil {
						t.Error(err)
						return
					}
					if got.ID() != c.ID() {
						t.Errorf("goroutine %d read wrong chunk", g)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheOverVerifiedCatchesTampering checks the recommended stack:
// verification below the cache turns substituted content into
// ErrCorrupt before it can be cached.
func TestCacheOverVerifiedCatchesTampering(t *testing.T) {
	honest := NewMemStore()
	right := chunk.New(chunk.TypeBlob, []byte("right"))
	wrong := chunk.New(chunk.TypeBlob, []byte("wrong"))
	honest.Put(right)
	evil := &misdirectingStore{Store: honest, wrong: wrong}
	cache := NewCache(Verified(evil), 1<<20)
	defer cache.Close()
	if _, err := cache.Get(right.ID()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("substituted chunk passed the cache fill: %v", err)
	}
	if s := cache.Stats(); s.CacheBytes != 0 {
		t.Fatal("tampered chunk entered the cache")
	}
}

// shardChunks returns n distinct chunks of size bytes (type byte
// included) that all fall in cache shard 0, so a test can fill that
// shard to its budget and know exactly what it holds.
func shardChunks(tag string, n, size int) []*chunk.Chunk {
	var out []*chunk.Chunk
	for i := 0; len(out) < n; i++ {
		p := make([]byte, size-1)
		copy(p, fmt.Sprintf("%s-%d", tag, i))
		if c := chunk.New(chunk.TypeBlob, p); c.ID()[0]&(cacheShards-1) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// sweepOut reclaims id from ms the way a collection does: a sweep
// that finds it unreachable, then a Drop of what the sweep reported.
func sweepOut(t testing.TB, ms *MemStore, cache *Cache, id chunk.ID) {
	t.Helper()
	ms.BeginGC()
	_, dead, err := ms.Sweep(func(x chunk.ID) bool { return x != id }, 0)
	ms.EndGC()
	if err != nil {
		t.Fatal(err)
	}
	cache.Drop(dead)
}

// parkingStore parks every Get after its read of the backing store
// until the test releases it.
type parkingStore struct {
	*MemStore
	parked, release chan struct{}
}

func (p *parkingStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	c, err := p.MemStore.Get(id)
	p.parked <- struct{}{}
	<-p.release
	return c, err
}

// TestCacheGetRacingSweepCachesNothingDead: a Get that read a chunk
// before a sweep reclaimed it, and fills after the sweep's Drop, must
// not cache it — else Has and Get would serve a chunk gone from disk.
func TestCacheGetRacingSweepCachesNothingDead(t *testing.T) {
	ms := NewMemStore()
	x := chunk.New(chunk.TypeBlob, []byte("reclaimed while read"))
	ms.Put(x)
	inner := &parkingStore{MemStore: ms, parked: make(chan struct{}), release: make(chan struct{})}
	cache := NewCache(inner, 1<<20)
	done := make(chan error)
	go func() {
		_, err := cache.Get(x.ID())
		done <- err
	}()
	<-inner.parked
	sweepOut(t, ms, cache, x.ID())
	close(inner.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cache.Has(x.ID()) {
		t.Fatal("the chunk the sweep reclaimed is cached after a racing Get")
	}
	if b := cache.CacheCounters().CacheBytes; b != 0 {
		t.Fatalf("cache holds %d bytes; want 0", b)
	}
}

// TestCacheScanResistance: a working set hit since the hand last passed
// survives a one-pass scan of never-reread chunks that overruns the
// free space — the hand clears the set's bits and evicts scan entries
// behind them. An LRU evicts the working set first.
func TestCacheScanResistance(t *testing.T) {
	const size, limit = 100, 40 * (100 + cacheEntryCost) // one shard holds 40 chunks
	cache := NewCache(NewMemStore(), cacheShards*limit)
	defer cache.Close()
	hot := shardChunks("hot", 10, size)
	for _, c := range hot {
		cache.Put(c)
	}
	for _, c := range hot {
		cache.Get(c.ID())
	}
	for _, c := range shardChunks("scan", 45, size) { // 15 past the free space
		cache.Put(c)
	}
	before := cache.CacheCounters()
	for _, c := range hot {
		if _, err := cache.Get(c.ID()); err != nil {
			t.Fatal(err)
		}
	}
	after := cache.CacheCounters()
	if hits := after.CacheHits - before.CacheHits; hits != int64(len(hot)) {
		t.Fatalf("%d of %d working-set chunks survived the scan", hits, len(hot))
	}
	if full := int64(limit - 40*cacheEntryCost); after.CacheBytes != full {
		t.Fatalf("cache holds %d bytes; want the full shard, %d", after.CacheBytes, full)
	}
}

// TestCacheSmallChunkHitCounts runs a fixed trace through shard 0:
// 4 KiB leaves read once, each beside a 200-byte chunk that is read
// again 40 pairs later, after the leaves have cycled through the whole
// shard, and once more 160 pairs after it was first read. Leaves earn
// no credit and small chunks several, so the hand evicts leaves and
// the small chunks are still there at the second read; at the third,
// only those whose credit the hit re-armed are. A plain CLOCK ring
// evicts in admission order and misses every re-read. The hand's steps
// stay within (max credit + 1) per eviction plus one pass over the ring,
// and the index reads a pinned number of table entries.
func TestCacheSmallChunkHitCounts(t *testing.T) {
	const pairs, lag, lag2 = 400, 40, 160
	const limit = 32 * (4096 + cacheEntryCost) // one shard holds 32 leaves
	leaves, small := shardChunks("leaf", pairs, 4096), shardChunks("small", pairs, 200)
	ms := NewMemStore()
	for i := range leaves {
		ms.Put(leaves[i])
		ms.Put(small[i])
	}
	cache := NewCache(ms, cacheShards*limit)
	defer cache.Close()
	for i := range leaves {
		cache.Get(leaves[i].ID())
		cache.Get(small[i].ID())
		if i >= lag {
			cache.Get(small[i-lag].ID())
		}
		if i >= lag2 {
			cache.Get(small[i-lag2].ID())
		}
	}
	got := cache.CacheCounters()
	if got.CacheHits != 445 || got.CacheMisses != 955 {
		t.Errorf("hits=%d misses=%d; want 445/955", got.CacheHits, got.CacheMisses)
	}
	s := &cache.shards[0]
	maxCredit := int64(cacheCredit(1))
	if bound := (maxCredit+1)*got.CacheEvictions + int64(len(s.slots)); s.steps > bound {
		t.Errorf("the hand took %d steps for %d evictions over %d slots; want at most %d", s.steps, got.CacheEvictions, len(s.slots), bound)
	}
	// The index's cost on the same trace: the table entries that 1 400
	// lookups and 955 admission checks read, with the hand's exact path.
	if s.probes != 3643 || s.steps != 5120 || got.CacheEvictions != 710 {
		t.Errorf("probes=%d steps=%d evictions=%d; want 3643/5120/710", s.probes, s.steps, got.CacheEvictions)
	}
}

// TestCacheBudgetBoundsMemory fills a cache with small chunks, for
// which the per-entry overhead rivals the payload, and checks that the
// heap the cache holds stays within its budget.
func TestCacheBudgetBoundsMemory(t *testing.T) {
	const budget = 8 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cache := NewCache(nopStore{}, budget)
	for i := 0; i < 100_000; i++ {
		p := make([]byte, 199)
		binary.LittleEndian.PutUint32(p, uint32(i))
		cache.Put(chunk.New(chunk.TypeBlob, p))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > budget*11/10 {
		t.Fatalf("the cache holds %d heap bytes (%d of payload) under a budget of %d", growth, cache.CacheCounters().CacheBytes, budget)
	}
	runtime.KeepAlive(cache)
}

// TestCacheKeyCollision: chunks whose cids share the shard and the
// index key (bytes 8..15), or only the key's fragment (bytes 11..15).
// None is served under another's id: while one is cached, a lookup of
// another falls through to the backing store, and Drop of one leaves
// the other.
func TestCacheKeyCollision(t *testing.T) {
	idA := chunk.New(chunk.TypeBlob, []byte("base")).ID()
	idB, idC := idA, idA
	idB[31] ^= 1
	idC[8] ^= 1
	a, err := chunk.DecodeStored([]byte{byte(chunk.TypeBlob), 'a'}, idA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chunk.DecodeStored([]byte{byte(chunk.TypeBlob), 'b', 'b'}, idB)
	if err != nil {
		t.Fatal(err)
	}
	c, err := chunk.DecodeStored([]byte{byte(chunk.TypeBlob), 'c', 'c', 'c'}, idC)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMemStore()
	ms.Put(a)
	ms.Put(b)
	ms.Put(c)
	cache := NewCache(ms, 1<<20)
	defer cache.Close()
	get := func(want *chunk.Chunk, fromInner bool) {
		t.Helper()
		gets := ms.Stats().Gets
		got, err := cache.Get(want.ID())
		if err != nil || got.ID() != want.ID() || !bytes.Equal(got.Data(), want.Data()) {
			t.Fatalf("Get(%s) = %v, %v; want the chunk with that id", want.ID().Short(), got, err)
		}
		if inner := ms.Stats().Gets > gets; inner != fromInner {
			t.Fatalf("Get(%s) reached the backing store: %v, want %v", want.ID().Short(), inner, fromInner)
		}
	}
	get(a, true)  // admitted
	get(b, true)  // key taken by a: served from the backing store, not cached
	get(a, false) // still cached
	get(b, true)
	if _, err := cache.Put(b); err != nil {
		t.Fatal(err)
	}
	get(b, true) // a Put does not displace a either
	get(c, true) // c shares a's fragment: not admitted either
	get(c, true)
	get(a, false)
	cache.Drop([]chunk.ID{idB, idC})
	get(a, false) // a Drop of b or c leaves a
	cache.Drop([]chunk.ID{idA})
	get(b, true) // the key is free: b is admitted
	get(b, false)
	get(a, true)
	get(c, true)
	get(b, false)
	if got := cache.CacheCounters().CacheBytes; got != int64(b.Size()) {
		t.Fatalf("cache holds %d bytes; want b's %d", got, b.Size())
	}
}

// TestCacheSlotCap: a shard's ring never grows past cacheMaxSlots, so
// slot + 1 always fits an entry's 24-bit field. At the cap, admission
// evicts to free a slot even when the byte budget has room. The test
// lowers the cap rather than filling 16 M slots.
func TestCacheSlotCap(t *testing.T) {
	if cacheMaxSlots+1 > cacheSlotMask {
		t.Fatalf("a cap of %d slots overflows the %d-bit slot field", cacheMaxSlots, cacheSlotBits)
	}
	defer func(n int) { cacheMaxSlots = n }(cacheMaxSlots)
	cacheMaxSlots = 5
	cache := NewCache(NewMemStore(), 1<<20) // the bytes never bind
	s := &cache.shards[0]
	cs := shardChunks("cap", 40, 100)
	for i, c := range cs {
		if _, err := cache.Put(c); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		_, ok := s.find(c.ID())
		checkIndex(t, s)
		s.mu.Unlock()
		if !ok || len(s.slots) > cacheMaxSlots {
			t.Fatalf("Put %d: cached %v, ring of %d slots; want cached in at most %d", i, ok, len(s.slots), cacheMaxSlots)
		}
	}
	if e := cache.CacheCounters().CacheEvictions; e != int64(len(cs)-cacheMaxSlots) {
		t.Fatalf("%d evictions; want %d", e, len(cs)-cacheMaxSlots)
	}
}

// checkIndex checks s's table against its ring: each occupied slot's
// position names an entry that carries its chunk's fragment, points
// back to the slot and is reachable from the fragment's probe start;
// every entry names an occupied slot, so the entry count is the
// occupied-slot count, none is a tombstone, and the table, a power of
// two, is at most half full. The caller holds s.mu.
func checkIndex(t testing.TB, s *cacheShard) {
	t.Helper()
	if n := len(s.table); n < cacheTableMin || n&(n-1) != 0 {
		t.Fatalf("table of %d entries; want a power of two, at least %d", n, cacheTableMin)
	}
	mask := uint32(len(s.table) - 1)
	occupied := 0
	for j, sl := range s.slots {
		if sl.c == nil {
			continue
		}
		occupied++
		key := cacheKey(sl.c.ID())
		if sl.pos > mask || s.table[sl.pos] != key&^cacheSlotMask|uint64(j+1) {
			t.Fatalf("slot %d records table position %d, which holds %#x", j, sl.pos, s.table[sl.pos&mask])
		}
		for p := uint32(key>>cacheSlotBits) & mask; p != sl.pos; p = (p + 1) & mask {
			if s.table[p] == 0 {
				t.Fatalf("slot %d's entry at %d is past an empty position %d of its probe", j, sl.pos, p)
			}
		}
	}
	entries := 0
	for p, e := range s.table {
		if e == 0 {
			continue
		}
		entries++
		if i := int(e&cacheSlotMask) - 1; i < 0 || i >= len(s.slots) || s.slots[i].c == nil || s.slots[i].pos != uint32(p) {
			t.Fatalf("table entry %#x at %d names no occupied slot that points back", e, p)
		}
	}
	if entries != occupied || entries != s.used || 2*entries > len(s.table) || len(s.slots) > cacheMaxSlots {
		t.Fatalf("%d table entries (%d counted) of %d for %d occupied slots of %d (cap %d)", entries, s.used, len(s.table), occupied, len(s.slots), cacheMaxSlots)
	}
}

// nopStore is a backing store that keeps nothing and allocates nothing,
// so an allocation count over a cache on it is the cache's own.
type nopStore struct{}

func (nopStore) Put(*chunk.Chunk) (bool, error)     { return false, nil }
func (nopStore) Get(chunk.ID) (*chunk.Chunk, error) { return nil, ErrNotFound }
func (nopStore) Has(chunk.ID) bool                  { return false }
func (nopStore) Stats() Stats                       { return Stats{} }
func (nopStore) Close() error                       { return nil }

// TestCacheAllocs pins the cache's allocations: none on a hit, and,
// once a shard is full, almost none to admit a chunk — the evicted
// entry's slot and index entry are reused.
func TestCacheAllocs(t *testing.T) {
	cache := NewCache(nopStore{}, cacheShards*40*100)
	cs := shardChunks("admit", 400, 100)
	for _, c := range cs[:80] {
		cache.Put(c)
	}
	hot := cs[79].ID()
	if n := testing.AllocsPerRun(1000, func() { cache.Get(hot) }); n != 0 {
		t.Fatalf("a hit allocates %v times; want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		cache.Put(cs[i%len(cs)])
		i++
	}); n > 0.1 {
		t.Fatalf("an admission into a full shard allocates %v times; want at most 0.1", n)
	}
	if e := cache.CacheCounters().CacheEvictions; e < 2000 {
		t.Fatalf("%d evictions; every admission should have evicted", e)
	}
}

// FuzzCache runs scripts of Put, Get, Has, sweep-and-Drop and Close
// against a model — the set of chunks the backing store holds — over a
// few chunks in two shards, four of them forged twins that share
// another chunk's index key or only its fragment. After every step and
// after a final Close the cache's bytes are exactly what its slots
// hold, those bytes plus the per-entry charge are within budget, each
// slot records its chunk's size and no more credit than that earns,
// the index holds exactly the occupied slots (checkIndex), every Get
// returns the chunk with the asked id, and a swept id is never served.
func FuzzCache(f *testing.F) {
	var universe []*chunk.Chunk
	for i := 0; len(universe) < 10; i++ {
		c := chunk.New(chunk.TypeBlob, make([]byte, 40+i*57%360))
		c = chunk.New(chunk.TypeBlob, append(c.Data(), byte(i)))
		if c.ID()[0]&(cacheShards-1) < 2 {
			universe = append(universe, c)
		}
	}
	for i, base := range universe[:4] {
		id := base.ID()
		id[20-i/2*12] ^= 0xff // bytes 8..15 shared, or only their fragment
		twin, err := chunk.DecodeStored([]byte{byte(chunk.TypeBlob), 't', 'w', 'i', 'n'}, id)
		if err != nil {
			f.Fatal(err)
		}
		universe = append(universe, twin)
	}
	f.Add([]byte{0x60, 0x61, 0x00, 0x01, 0xa0, 0x00, 0x6a, 0x0a, 0x00})
	f.Add([]byte{0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6b, 0x01, 0xe0, 0x02})
	f.Add([]byte{0x6a, 0x60, 0x0a, 0x00, 0xa0, 0x0a, 0x00, 0xc0, 0xca})
	f.Fuzz(func(t *testing.T, script []byte) {
		const limit = 600
		ms := NewMemStore()
		cache := NewCache(ms, cacheShards*limit)
		held := map[chunk.ID]bool{} // the model: what the backing store holds
		check := func() {
			t.Helper()
			var total int64
			for i := range cache.shards {
				s := &cache.shards[i]
				s.mu.Lock()
				var n int64
				entries := 0
				for j, sl := range s.slots {
					if sl.c == nil {
						continue
					}
					entries++
					n += int64(sl.c.Size())
					if sl.size != sl.c.Size() || sl.earn != cacheCredit(sl.c.Size()) || sl.credit > sl.earn {
						t.Fatalf("slot %d records size %d and credit %d of %d; its %d-byte chunk earns %d", j, sl.size, sl.credit, sl.earn, sl.c.Size(), cacheCredit(sl.c.Size()))
					}
					if !held[sl.c.ID()] {
						t.Fatalf("swept chunk %s is cached", sl.c.ID().Short())
					}
				}
				checkIndex(t, s)
				if n != s.bytes || n+int64(entries)*cacheEntryCost > s.limit {
					t.Fatalf("shard %d: slots hold %d bytes in %d entries; shard counts %d bytes, limit %d", i, n, entries, s.bytes, s.limit)
				}
				total += n
				s.mu.Unlock()
			}
			if got := cache.CacheCounters().CacheBytes; got != total {
				t.Fatalf("CacheBytes = %d; the slots hold %d", got, total)
			}
		}
		for _, op := range script {
			c := universe[int(op&31)%len(universe)]
			id := c.ID()
			switch op >> 5 {
			case 0, 1, 2:
				got, err := cache.Get(id)
				if held[id] && (err != nil || got.ID() != id || !bytes.Equal(got.Data(), c.Data())) {
					t.Fatalf("Get(%s) = %v, %v; want the chunk", id.Short(), got, err)
				}
				if !held[id] && !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%s) of a swept chunk = %v, %v", id.Short(), got, err)
				}
			case 3, 4:
				if _, err := cache.Put(c); err != nil {
					t.Fatal(err)
				}
				held[id] = true
			case 5:
				sweepOut(t, ms, cache, id)
				delete(held, id)
			case 6:
				if cache.Has(id) != held[id] {
					t.Fatalf("Has(%s) = %v; want %v", id.Short(), !held[id], held[id])
				}
			case 7:
				cache.Close()
			}
			check()
		}
		cache.Close()
		check()
	})
}
