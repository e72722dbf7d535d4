package store

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
)

// Cache is a concurrency-safe sharded chunk cache in front of any
// Store: a CLOCK ring over an 8-byte cid index. Chunks are immutable and
// content-addressed, so a cache never needs invalidation — an entry is
// either the chunk or absent — and is safe at every layer: over the
// FileStore, the cluster's pool, or the POS-Tree read paths.
//
// The budget is split evenly among the shards, each under its own
// mutex, and charges each entry its serialized size plus
// cacheEntryCost, the memory an entry costs beyond its payload. A
// shard indexes cid bytes 8..15, already a uniform hash, into a ring
// of slots. A hit sets the slot's reference bit; admission sweeps a
// hand round the ring until the new entry fits. At each slot the hand
// clears a set bit, else spends one of the slot's credits, else evicts
// the entry.
//
// The credits approximate GreedyDual-Size (Cao and Irani, 1997), which
// keeps the entries that earn the most hits per byte: a slot's credit,
// set on admission and again when the hand clears its bit, is
// cacheCredit of its size, several passes for a 200-byte FObject meta
// or Blob leaf and none for a 4 KiB POS-tree leaf. So under the same
// pressure a small chunk outlives a leaf-sized one, and a referenced
// slot still outlives an unreferenced one of the same size.
type Cache struct {
	inner  Store
	shards []cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	limit int64            // byte budget for this shard
	bytes int64            // serialized bytes held
	index map[uint64]int32 // cacheKey → slot
	slots []cacheSlot      // the ring; a nil chunk is a free slot
	free  []int32          // free slots, reused before the ring grows
	hand  int
	steps int64         // slots the hand has passed, for tests
	drops atomic.Uint64 // Drop calls on the shard, written under mu
}

type cacheSlot struct {
	c      *chunk.Chunk
	ref    bool  // hit since the hand last passed
	credit uint8 // passes left before the hand evicts, once ref is clear
	earn   uint8 // cacheCredit of c's size, kept so the hand need not read c
}

// cacheEntryCost is the memory an entry costs beyond its payload, in
// bytes: the chunk struct (64), its slot in the ring (16), its index
// entry, and the slack the ring and the index keep to grow into.
// TestCacheBudgetBoundsMemory holds the budget to the heap it bounds.
const cacheEntryCost = 128

// cacheCreditBytes sets a slot's credit: cacheCreditBytes/(size+
// cacheEntryCost) passes, so a 200-byte chunk earns 6, a chunk of
// more than 1 920 bytes none, and no chunk more than 15.
const cacheCreditBytes = 2048

// cacheCredit returns the credit of a chunk of size serialized bytes.
func cacheCredit(size int) uint8 {
	return uint8(cacheCreditBytes / (size + cacheEntryCost))
}

// cacheShards is the shard count, a power of two so that a mask picks one.
const cacheShards = 16

// cacheKey is a shard's index key; find checks the whole cid behind it.
func cacheKey(id chunk.ID) uint64 { return binary.LittleEndian.Uint64(id[8:16]) }

// NewCache wraps inner with a CLOCK ring over an 8-byte cid index,
// bounded by maxBytes: each entry is charged its serialized size plus
// a fixed per-entry cost (the chunk struct, its slot and its index
// entry), so the budget bounds memory for small chunks as well as
// large ones. Under the same pressure a small chunk outlives a
// leaf-sized one. A chunk larger than one shard's share (maxBytes/16)
// is never cached, so the budget should comfortably exceed 16x the
// chunk size (a few hundred KB or more for 4 KB chunks). A
// non-positive budget caches nothing.
func NewCache(inner Store, maxBytes int64) *Cache {
	c := &Cache{inner: inner, shards: make([]cacheShard, cacheShards)}
	for i := range c.shards {
		c.shards[i].limit = maxBytes / cacheShards
		c.shards[i].index = make(map[uint64]int32)
	}
	return c
}

// Inner returns the backing store.
func (c *Cache) Inner() Store { return c.inner }

// Unwrap returns the backing store, letting the collector find the
// Collectable at the bottom of a wrapped stack.
func (c *Cache) Unwrap() Store { return c.inner }

// Drop evicts the given ids, the chunks a sweep reclaimed, so the cache
// never serves bytes the backing store no longer holds; every other
// entry stays warm, as content addressing keeps it bit-identical.
func (c *Cache) Drop(ids []chunk.ID) {
	for _, id := range ids {
		s := c.shard(id)
		s.mu.Lock()
		s.drops.Add(1)
		if i, ok := s.find(id); ok {
			c.remove(s, i)
		}
		s.mu.Unlock()
	}
}

func (c *Cache) shard(id chunk.ID) *cacheShard {
	// Any cid byte selects uniformly; the pool places by the tail
	// bytes, so the head keeps shard choice independent of placement.
	return &c.shards[id[0]&(cacheShards-1)]
}

// find returns the slot holding id. The caller holds s.mu.
func (s *cacheShard) find(id chunk.ID) (int32, bool) {
	i, ok := s.index[cacheKey(id)]
	return i, ok && s.slots[i].c.ID() == id
}

// remove frees slot i of s. The caller holds s.mu.
func (c *Cache) remove(s *cacheShard, i int32) {
	size := int64(s.slots[i].c.Size())
	delete(s.index, cacheKey(s.slots[i].c.ID()))
	s.slots[i], s.free = cacheSlot{}, append(s.free, i)
	s.bytes -= size
	c.bytes.Add(-size)
}

// admit caches ck in s unless ck's key is taken or a Drop ran on s since
// the caller read drops — so a fill that raced a sweep caches nothing
// the sweep reclaimed — sweeping the hand until ck fits in the budget.
func (c *Cache) admit(s *cacheShard, ck *chunk.Chunk, drops uint64) {
	size := int64(ck.Size())
	if size+cacheEntryCost > s.limit {
		return // larger than the whole shard: never cache
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := cacheKey(ck.ID())
	if _, ok := s.index[key]; ok || s.drops.Load() != drops {
		return
	}
	for s.bytes+int64(len(s.index)+1)*cacheEntryCost+size > s.limit {
		switch sl := &s.slots[s.hand]; {
		case sl.c == nil:
		case sl.ref:
			sl.ref, sl.credit = false, sl.earn
		case sl.credit > 0:
			sl.credit--
		default:
			c.remove(s, int32(s.hand))
			c.evictions.Add(1)
		}
		s.hand = (s.hand + 1) % len(s.slots)
		s.steps++
	}
	i := int32(len(s.slots))
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.slots = append(s.slots, cacheSlot{})
	}
	earn := cacheCredit(int(size))
	s.slots[i] = cacheSlot{c: ck, credit: earn, earn: earn}
	s.index[key] = i
	s.bytes += size
	c.bytes.Add(size)
}

// Get implements Store, serving from the cache when possible and
// filling it from the backing store on a miss.
func (c *Cache) Get(id chunk.ID) (*chunk.Chunk, error) {
	s := c.shard(id)
	s.mu.Lock()
	if i, ok := s.find(id); ok {
		if !s.slots[i].ref {
			s.slots[i].ref = true
		}
		ck := s.slots[i].c
		s.mu.Unlock()
		c.hits.Add(1)
		return ck, nil
	}
	s.mu.Unlock()
	drops := s.drops.Load()
	c.misses.Add(1)
	ck, err := c.inner.Get(id)
	if err != nil {
		return nil, err
	}
	c.admit(s, ck, drops)
	return ck, nil
}

// Put implements Store, writing through to the backing store and
// admitting the chunk so an immediately following read hits.
func (c *Cache) Put(ck *chunk.Chunk) (bool, error) {
	s := c.shard(ck.ID())
	drops := s.drops.Load()
	dup, err := c.inner.Put(ck)
	if err == nil {
		c.admit(s, ck, drops)
	}
	return dup, err
}

// Has implements Store.
func (c *Cache) Has(id chunk.ID) bool {
	s := c.shard(id)
	s.mu.Lock()
	_, ok := s.find(id)
	s.mu.Unlock()
	return ok || c.inner.Has(id)
}

// Stats implements Store: the backing store's counters plus this
// cache's, with hits, which never reach the backing store, folded into
// Gets so that it keeps meaning "total Get calls" at this layer.
func (c *Cache) Stats() Stats {
	s, own := c.inner.Stats(), c.CacheCounters()
	own.Gets = own.CacheHits
	s.Add(own)
	return s
}

// CacheCounters returns only this cache's own counters, with the
// backing store's traffic zeroed — for callers that share the backing
// store among several caches and must not double-count it.
func (c *Cache) CacheCounters() Stats {
	return Stats{CacheHits: c.hits.Load(), CacheMisses: c.misses.Load(),
		CacheEvictions: c.evictions.Load(), CacheBytes: c.bytes.Load()}
}

// Close implements Store, releasing the cache and the backing store.
func (c *Cache) Close() error {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.drops.Add(1)
		c.bytes.Add(-s.bytes)
		s.index, s.slots, s.free, s.hand, s.bytes = make(map[uint64]int32), nil, nil, 0, 0
		s.mu.Unlock()
	}
	return c.inner.Close()
}
