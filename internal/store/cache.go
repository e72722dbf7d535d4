package store

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
)

// Cache is a concurrency-safe sharded chunk cache in front of any
// Store: a CLOCK ring over an open-addressed index of 8-byte entries.
// Chunks are immutable and content-addressed, so a cache never needs
// invalidation — an entry is either the chunk or absent — and is safe
// at every layer: over the FileStore, the cluster's pool, or the
// POS-Tree read paths.
//
// The budget is split evenly among the shards, each under its own
// mutex, and charges each entry its serialized size plus
// cacheEntryCost, the memory an entry costs beyond its payload. A
// shard's index is a linear-probing table of uint64 entries, at most
// half full: each holds a 40-bit fragment of cid bytes 8..15, already
// a uniform hash that also picks the probe's start, and the ring slot
// it names. Each slot records its table position and its chunk's size,
// so an eviction empties its entry without reading the evicted chunk.
// A hit sets the slot's reference bit; admission sweeps a hand round
// the ring until the new entry fits. At each slot the hand clears a
// set bit, else spends one of the slot's credits, else evicts the
// entry.
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
	mu     sync.Mutex
	limit  int64       // byte budget for this shard
	bytes  int64       // serialized bytes held
	table  []uint64    // the index: fragment<<cacheSlotBits | slot+1, 0 empty
	used   int         // live table entries, one per occupied slot
	slots  []cacheSlot // the ring; a nil chunk is a free slot
	free   []int32     // free slots, reused before the ring grows
	hand   int
	steps  int64         // slots the hand has passed, for tests
	probes int64         // table entries lookups have read, for tests
	drops  atomic.Uint64 // Drop calls on the shard, written under mu
}

type cacheSlot struct {
	c      *chunk.Chunk
	size   int    // c.Size(), kept so an eviction need not read c
	pos    uint32 // c's entry in the table
	ref    bool   // hit since the hand last passed
	credit uint8  // passes left before the hand evicts, once ref is clear
	earn   uint8  // cacheCredit of size
}

// cacheEntryCost is the memory an entry costs beyond its payload, in
// bytes: the chunk struct (64), its slot in the ring (24), its one to
// four table entries (8 each), and the slack the ring keeps to grow
// into. TestCacheBudgetBoundsMemory holds the budget to the heap it
// bounds.
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

// A table entry keeps the slot + 1 in its low cacheSlotBits and the
// upper bits of cacheKey above them.
const (
	cacheSlotBits = 24
	cacheSlotMask = 1<<cacheSlotBits - 1
	cacheTableMin = 8 // a shard's first table, a power of two
)

// cacheMaxSlots caps a shard's ring, so that slot + 1 always fits in an
// entry's slot field: at the cap, admission evicts to free a slot.
var cacheMaxSlots = cacheSlotMask - 1

// cacheKey is a shard's index key; find checks the whole cid behind it.
func cacheKey(id chunk.ID) uint64 { return binary.LittleEndian.Uint64(id[8:16]) }

// NewCache wraps inner with a CLOCK ring over an open-addressed index
// of 8-byte entries, bounded by maxBytes: each entry is charged its
// serialized size plus a fixed per-entry cost (the chunk struct, its
// slot and its table entries), so the budget bounds memory for small
// chunks as well as large ones. Under the same pressure a small chunk
// outlives a leaf-sized one. A chunk larger than one shard's share
// (maxBytes/16) is never cached, so the budget should comfortably
// exceed 16x the chunk size (a few hundred KB or more for 4 KB
// chunks). A non-positive budget caches nothing.
func NewCache(inner Store, maxBytes int64) *Cache {
	c := &Cache{inner: inner, shards: make([]cacheShard, cacheShards)}
	for i := range c.shards {
		c.shards[i].limit = maxBytes / cacheShards
		c.shards[i].table = make([]uint64, cacheTableMin)
	}
	return c
}

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

// probe returns the table position of the entry whose fragment is
// key's, else the empty position that ends key's probe. The caller
// holds s.mu.
func (s *cacheShard) probe(key uint64) (uint32, bool) {
	mask := uint32(len(s.table) - 1)
	for p := uint32(key>>cacheSlotBits) & mask; ; p = (p + 1) & mask {
		s.probes++
		switch e := s.table[p]; {
		case e == 0:
			return p, false
		case e>>cacheSlotBits == key>>cacheSlotBits:
			return p, true
		}
	}
}

// find returns the slot holding id. A slot whose chunk shares only
// id's fragment is a miss. The caller holds s.mu.
func (s *cacheShard) find(id chunk.ID) (int32, bool) {
	p, ok := s.probe(cacheKey(id))
	if !ok {
		return 0, false
	}
	i := int32(s.table[p]&cacheSlotMask) - 1
	return i, s.slots[i].c.ID() == id
}

// place writes entry e at the first empty position of its probe and
// points its slot there. The caller holds s.mu.
func (s *cacheShard) place(e uint64) {
	mask := uint32(len(s.table) - 1)
	p := uint32(e>>cacheSlotBits) & mask
	for s.table[p] != 0 {
		p = (p + 1) & mask
	}
	s.table[p] = e
	s.slots[e&cacheSlotMask-1].pos = p
}

// grow doubles the table, placing every entry again from its fragment
// alone. The caller holds s.mu.
func (s *cacheShard) grow() {
	old := s.table
	s.table = make([]uint64, 2*len(old))
	for _, e := range old {
		if e != 0 {
			s.place(e)
		}
	}
}

// unindex empties table position p, shifting back each later entry of
// the run whose probe passes p, so that no probe ever needs a
// tombstone. The caller holds s.mu.
func (s *cacheShard) unindex(p uint32) {
	mask := uint32(len(s.table) - 1)
	for q := (p + 1) & mask; s.table[q] != 0; q = (q + 1) & mask {
		e := s.table[q]
		if home := uint32(e>>cacheSlotBits) & mask; (q-home)&mask >= (q-p)&mask {
			s.table[p] = e
			s.slots[e&cacheSlotMask-1].pos = p
			p = q
		}
	}
	s.table[p] = 0
	s.used--
}

// remove frees slot i of s. The caller holds s.mu.
func (c *Cache) remove(s *cacheShard, i int32) {
	size := int64(s.slots[i].size)
	s.unindex(s.slots[i].pos)
	s.slots[i], s.free = cacheSlot{}, append(s.free, i)
	s.bytes -= size
	c.bytes.Add(-size)
}

// admit caches ck in s unless ck's key is taken or a Drop ran on s since
// the caller read drops — so a fill that raced a sweep caches nothing
// the sweep reclaimed — sweeping the hand until ck fits in the budget
// and a slot is free or the ring may grow.
func (c *Cache) admit(s *cacheShard, ck *chunk.Chunk, drops uint64) {
	size := int64(ck.Size())
	if size+cacheEntryCost > s.limit {
		return // larger than the whole shard: never cache
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := cacheKey(ck.ID())
	if _, taken := s.probe(key); taken || s.drops.Load() != drops {
		return
	}
	for s.bytes+int64(s.used+1)*cacheEntryCost+size > s.limit ||
		len(s.free) == 0 && len(s.slots) >= cacheMaxSlots {
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
	if 2*(s.used+1) > len(s.table) {
		s.grow()
	}
	i := int32(len(s.slots))
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.slots = append(s.slots, cacheSlot{})
	}
	earn := cacheCredit(int(size))
	s.slots[i] = cacheSlot{c: ck, size: int(size), credit: earn, earn: earn}
	s.place(key&^cacheSlotMask | uint64(i+1))
	s.used++
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
		s.table, s.used = make([]uint64, cacheTableMin), 0
		s.slots, s.free, s.hand, s.bytes = nil, nil, 0, 0
		s.mu.Unlock()
	}
	return c.inner.Close()
}
