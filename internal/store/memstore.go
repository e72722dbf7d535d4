package store

import (
	"fmt"
	"sync"

	"forkbase/internal/chunk"
)

// MemStore is an in-memory chunk store, the default for embedded use and
// for tests. The zero value is not usable; call NewMemStore.
type MemStore struct {
	mu     sync.RWMutex
	chunks map[chunk.ID]*chunk.Chunk
	stats  Stats

	// GC window state; see Collectable.
	gcDepth   int
	protected map[chunk.ID]struct{}
}

// NewMemStore returns an empty in-memory chunk store.
func NewMemStore() *MemStore {
	return &MemStore{chunks: make(map[chunk.ID]*chunk.Chunk)}
}

// Put implements Store.
func (m *MemStore) Put(c *chunk.Chunk) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Puts++
	if m.gcDepth > 0 {
		// Shield the cid — fresh or deduplicated — from a concurrent
		// sweep: the marker cannot know about writes racing with it.
		m.protected[c.ID()] = struct{}{}
	}
	if _, ok := m.chunks[c.ID()]; ok {
		m.stats.Dups++
		m.stats.DupBytes += int64(c.Size())
		return true, nil
	}
	m.chunks[c.ID()] = c
	m.stats.Chunks++
	m.stats.Bytes += int64(c.Size())
	return false, nil
}

// Get implements Store.
func (m *MemStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	m.mu.Lock()
	c, ok := m.chunks[id]
	m.stats.Gets++
	if ok {
		m.stats.ReadBytes += int64(c.Size())
	}
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

// Has implements Store.
func (m *MemStore) Has(id chunk.ID) bool {
	m.mu.RLock()
	_, ok := m.chunks[id]
	m.mu.RUnlock()
	return ok
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// BeginGC implements Collectable.
func (m *MemStore) BeginGC() {
	m.mu.Lock()
	if m.gcDepth == 0 {
		m.protected = make(map[chunk.ID]struct{})
	}
	m.gcDepth++
	m.mu.Unlock()
}

// Protect implements Collectable.
func (m *MemStore) Protect(ids []chunk.ID) {
	m.mu.Lock()
	if m.gcDepth > 0 {
		for _, id := range ids {
			m.protected[id] = struct{}{}
		}
	}
	m.mu.Unlock()
}

// EndGC implements Collectable.
func (m *MemStore) EndGC() {
	m.mu.Lock()
	if m.gcDepth--; m.gcDepth <= 0 {
		m.gcDepth = 0
		m.protected = nil
	}
	m.mu.Unlock()
}

// Sweep implements Collectable: chunks neither live nor written during
// the GC window are dropped. There is no physical layout to compact,
// so threshold is ignored and freed bytes return to the heap directly.
func (m *MemStore) Sweep(live func(chunk.ID) bool, threshold float64) (GCStats, []chunk.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gcDepth == 0 {
		return GCStats{}, nil, fmt.Errorf("store: Sweep outside a BeginGC window")
	}
	var stats GCStats
	var dead []chunk.ID
	for id, c := range m.chunks {
		if live(id) {
			continue
		}
		if _, ok := m.protected[id]; ok {
			continue
		}
		delete(m.chunks, id)
		m.stats.Chunks--
		m.stats.Bytes -= int64(c.Size())
		stats.Reclaimed++
		stats.ReclaimedBytes += int64(c.Size())
		dead = append(dead, id)
	}
	return stats, dead, nil
}
