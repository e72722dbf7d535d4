package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
)

// Cache is a concurrency-safe sharded LRU chunk cache in front of any
// Store. Chunks are immutable and content-addressed, so a cache never
// needs invalidation — an entry is either the chunk or absent — which
// makes it safe at every layer: over the log-structured FileStore it
// saves the decode + crc + disk round-trip, over the cluster's shared
// pool it saves the remote hop, and under the POS-Tree read paths it
// turns repeated traversals of shared subtrees into pointer lookups.
//
// The byte budget is divided evenly among the shards; each shard
// maintains its own LRU order under its own mutex, so concurrent
// readers of distinct chunks rarely contend.
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
	limit int64 // byte budget for this shard
	bytes int64 // serialized bytes held
	ll    *list.List
	index map[chunk.ID]*list.Element
}

type cacheEntry struct {
	id chunk.ID
	c  *chunk.Chunk
}

// cacheShards is the shard count; a power of two so shard selection is
// a mask over the (uniformly distributed) cid bytes.
const cacheShards = 16

// NewCache wraps inner with an LRU chunk cache bounded by maxBytes of
// serialized chunk payload. The budget is split evenly among the 16
// shards, and a chunk larger than one shard's share (maxBytes/16) is
// never cached — so the budget should comfortably exceed 16x the
// configured chunk size (with the paper-default 4 KB chunks, anything
// upward of a few hundred KB works; typical budgets are MBs). A
// non-positive budget still returns a functioning store, just one
// that caches nothing.
func NewCache(inner Store, maxBytes int64) *Cache {
	c := &Cache{inner: inner, shards: make([]cacheShard, cacheShards)}
	per := maxBytes / cacheShards
	for i := range c.shards {
		c.shards[i].limit = per
		c.shards[i].ll = list.New()
		c.shards[i].index = make(map[chunk.ID]*list.Element)
	}
	return c
}

// Inner returns the backing store.
func (c *Cache) Inner() Store { return c.inner }

// Unwrap returns the backing store, letting the collector find the
// Collectable at the bottom of a wrapped stack.
func (c *Cache) Unwrap() Store { return c.inner }

// Drop evicts the given ids, the chunks a sweep reclaimed, so that the
// cache never serves bytes the backing store no longer holds. Every
// other entry stays warm: content addressing guarantees it is still
// bit-identical.
func (c *Cache) Drop(ids []chunk.ID) {
	for _, id := range ids {
		s := c.shard(id)
		s.mu.Lock()
		if el, ok := s.index[id]; ok {
			e := el.Value.(*cacheEntry)
			s.ll.Remove(el)
			delete(s.index, id)
			s.bytes -= int64(e.c.Size())
			c.bytes.Add(-int64(e.c.Size()))
		}
		s.mu.Unlock()
	}
}

func (c *Cache) shard(id chunk.ID) *cacheShard {
	// The cid is a cryptographic hash; any byte selects uniformly. The
	// pool's placement uses the tail bytes, so take the head here to
	// keep shard choice independent of member choice.
	return &c.shards[id[0]&(cacheShards-1)]
}

// lookup returns the cached chunk and bumps its recency.
func (s *cacheShard) lookup(id chunk.ID) (*chunk.Chunk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[id]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).c, true
}

// admit inserts ck, evicting from the cold end to respect the budget.
// It reports how many entries and bytes were evicted.
func (s *cacheShard) admit(ck *chunk.Chunk) (evicted int, freed int64, added bool) {
	size := int64(ck.Size())
	if size > s.limit {
		return 0, 0, false // larger than the whole shard: never cache
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[ck.ID()]; ok {
		return 0, 0, false
	}
	s.index[ck.ID()] = s.ll.PushFront(&cacheEntry{id: ck.ID(), c: ck})
	s.bytes += size
	for s.bytes > s.limit {
		cold := s.ll.Back()
		e := cold.Value.(*cacheEntry)
		s.ll.Remove(cold)
		delete(s.index, e.id)
		s.bytes -= int64(e.c.Size())
		freed += int64(e.c.Size())
		evicted++
	}
	return evicted, freed, true
}

// Get implements Store, serving from the cache when possible and
// filling it from the backing store on a miss.
func (c *Cache) Get(id chunk.ID) (*chunk.Chunk, error) {
	sh := c.shard(id)
	if ck, ok := sh.lookup(id); ok {
		c.hits.Add(1)
		return ck, nil
	}
	c.misses.Add(1)
	ck, err := c.inner.Get(id)
	if err != nil {
		return nil, err
	}
	c.account(sh, ck)
	return ck, nil
}

// Put implements Store, writing through to the backing store and
// admitting the chunk so an immediately following read hits.
func (c *Cache) Put(ck *chunk.Chunk) (bool, error) {
	dup, err := c.inner.Put(ck)
	if err != nil {
		return dup, err
	}
	c.account(c.shard(ck.ID()), ck)
	return dup, nil
}

func (c *Cache) account(sh *cacheShard, ck *chunk.Chunk) {
	evicted, freed, added := sh.admit(ck)
	if added {
		c.bytes.Add(int64(ck.Size()) - freed)
		c.evictions.Add(int64(evicted))
	}
}

// Has implements Store.
func (c *Cache) Has(id chunk.ID) bool {
	sh := c.shard(id)
	sh.mu.Lock()
	_, ok := sh.index[id]
	sh.mu.Unlock()
	return ok || c.inner.Has(id)
}

// Stats implements Store: the backing store's counters plus this
// cache's hit/miss/eviction/occupancy counters.
func (c *Cache) Stats() Stats {
	s := c.inner.Stats()
	// Hits never reach the backing store; fold them in so Gets keeps
	// meaning "total Get calls" at this layer.
	s.Gets += c.hits.Load()
	s.CacheHits += c.hits.Load()
	s.CacheMisses += c.misses.Load()
	s.CacheEvictions += c.evictions.Load()
	s.CacheBytes += c.bytes.Load()
	return s
}

// CacheCounters returns only this cache's own counters, with the
// backing store's traffic zeroed — for callers that share the backing
// store among several caches and must not double-count it.
func (c *Cache) CacheCounters() Stats {
	return Stats{
		CacheHits:      c.hits.Load(),
		CacheMisses:    c.misses.Load(),
		CacheEvictions: c.evictions.Load(),
		CacheBytes:     c.bytes.Load(),
	}
}

// Close implements Store, releasing the cache and the backing store.
func (c *Cache) Close() error {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.ll.Init()
		sh.index = make(map[chunk.ID]*list.Element)
		sh.bytes = 0
		sh.mu.Unlock()
	}
	return c.inner.Close()
}
