package forkbase

import (
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
	"forkbase/internal/wire"
)

// DropChunkCacheForTest replaces the client chunk cache with an empty
// one, simulating a cache that lost its contents between attaching a
// value handle and reading it (a cleaned cache directory, a collected
// cache). Handle reads after this must take the lazy-fetch path.
func (rs *RemoteStore) DropChunkCacheForTest() {
	if rs.local != nil {
		old := rs.local
		rs.local = store.NewCache(store.NewMemStore(), 64<<20)
		old.Close()
	}
}

// ChunkCacheStatsForTest reports what the client chunk cache holds.
func (rs *RemoteStore) ChunkCacheStatsForTest() store.Stats { return rs.local.Stats() }

// ChunkStoreReads counts the reads a client makes of its own chunk
// store: Gets open a chunk, Hases only ask about one.
type ChunkStoreReads struct {
	store.Store
	Gets, Hases atomic.Int64
}

func (c *ChunkStoreReads) Get(id chunk.ID) (*chunk.Chunk, error) {
	c.Gets.Add(1)
	return c.Store.Get(id)
}

func (c *ChunkStoreReads) Has(id chunk.ID) bool {
	c.Hases.Add(1)
	return c.Store.Has(id)
}

// CountChunkStoreReadsForTest puts a read counter in front of the
// client chunk store. Call it before the client is shared.
func (rs *RemoteStore) CountChunkStoreReadsForTest() *ChunkStoreReads {
	c := &ChunkStoreReads{Store: rs.local}
	rs.local = c
	return c
}

// DropServerStatsFeatureForTest clears FeatureServerStats from the
// client's view of the server's Hello, simulating a peer that predates
// the stats op. ServerStats must then degrade gracefully: a local
// ErrUnsupported, no bytes on the wire.
func (rs *RemoteStore) DropServerStatsFeatureForTest() {
	rs.features.Store(rs.features.Load() &^ wire.FeatureServerStats)
}

// ConnShieldsForTest counts the chunk ids the server's live
// connections hold shielded for chunked puts still being negotiated.
func (s *Server) ConnShieldsForTest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for sc := range s.conns {
		sc.shieldMu.Lock()
		for _, set := range sc.shields {
			n += len(set)
		}
		sc.shieldMu.Unlock()
	}
	return n
}

// ShieldedForTest reports whether the engine holds a GC shield on id.
func (db *DB) ShieldedForTest(id chunk.ID) bool { return db.eng.Shielded(id) }

// ChunkStoreForTest returns the engine's chunk store stack.
func (db *DB) ChunkStoreForTest() store.Store { return db.eng.Store() }

// SetRootsHookForTest parks every collection inside its root
// enumeration, after the shields are read and before the heads are,
// for as long as f runs.
func (db *DB) SetRootsHookForTest(f func()) { db.eng.SetRootsHookForTest(f) }

// StagedChunksForTest counts the chunks the client created and the
// server has not acknowledged.
func (rs *RemoteStore) StagedChunksForTest() int {
	rs.stagedMu.Lock()
	defer rs.stagedMu.Unlock()
	return len(rs.staged)
}

// SetHelloTimeoutForTest shortens the Hello deadline of connections
// accepted from now on, and returns the restore. Set it before the
// server starts and restore it after the server has closed.
func SetHelloTimeoutForTest(d time.Duration) (restore func()) {
	old := helloTimeout
	helloTimeout = d
	return func() { helloTimeout = old }
}

// ServedForTest reports whether op has a row in the server's op table.
func ServedForTest(op uint8) bool { return served(op) }
