package forkbase

import (
	"forkbase/internal/store"
	"forkbase/internal/wire"
)

// DropChunkCacheForTest replaces the client chunk cache with an empty
// one, simulating a cache that lost its contents between attaching a
// value handle and reading it (a cleaned cache directory, a collected
// cache). Handle reads after this must take the lazy-fetch path.
func (rs *RemoteStore) DropChunkCacheForTest() {
	if rs.local != nil {
		rs.local = store.NewCache(store.NewMemStore(), 64<<20)
	}
}

// ChunkCacheStatsForTest reports what the client chunk cache holds.
func (rs *RemoteStore) ChunkCacheStatsForTest() store.Stats { return rs.local.Stats() }

// DropServerStatsFeatureForTest clears FeatureServerStats from the
// client's view of the server's Hello, simulating a peer that predates
// the stats op. ServerStats must then degrade gracefully: a local
// ErrUnsupported, no bytes on the wire.
func (rs *RemoteStore) DropServerStatsFeatureForTest() {
	rs.features.Store(rs.features.Load() &^ wire.FeatureServerStats)
}
