// Package store provides chunk storage (paper §4.4): a content-addressed
// key-value store whose key is a cid and whose value is the chunk bytes.
// Chunks are immutable, so every implementation deduplicates by cid and
// a log-structured layout suits persistence.
package store

import (
	"errors"
	"fmt"

	"forkbase/internal/chunk"
)

// ErrNotFound is returned when no chunk with the requested cid exists.
var ErrNotFound = errors.New("store: chunk not found")

// ErrCorrupt is returned when a chunk fails an integrity check on read:
// a crc32 mismatch against the record header, an undecodable body, or
// content that does not hash to the requested cid. Match with
// errors.Is; the wrapped message carries the location of the damage.
var ErrCorrupt = errors.New("store: chunk corrupt")

// Store is the chunk-storage interface. Implementations must be safe for
// concurrent use.
type Store interface {
	// Put persists a chunk. If a chunk with the same cid already
	// exists the call is a no-op and dup is true — this is the
	// deduplication short-circuit of §4.4.
	Put(c *chunk.Chunk) (dup bool, err error)
	// Get retrieves the chunk with the given cid, or ErrNotFound.
	Get(id chunk.ID) (*chunk.Chunk, error)
	// Has reports whether a chunk with the given cid exists.
	Has(id chunk.ID) bool
	// Stats returns storage counters.
	Stats() Stats
	// Close releases resources. The store must not be used after Close.
	Close() error
}

// Stats summarizes a store's contents and traffic.
type Stats struct {
	Chunks    int   // number of distinct chunks held
	Bytes     int64 // serialized bytes of distinct chunks held
	Puts      int64 // total Put calls
	Dups      int64 // Put calls absorbed by deduplication
	Gets      int64 // total Get calls
	DupBytes  int64 // serialized bytes absorbed by deduplication
	ReadBytes int64 // serialized bytes served by Get

	// Chunk-cache counters; zero unless a Cache wraps the store.
	CacheHits      int64 // Gets served from the cache
	CacheMisses    int64 // Gets that fell through to the backing store
	CacheEvictions int64 // entries evicted to respect the byte budget
	CacheBytes     int64 // serialized bytes currently cached
}

// Add accumulates o into s (used by federating stores and wrappers).
func (s *Stats) Add(o Stats) {
	s.Chunks += o.Chunks
	s.Bytes += o.Bytes
	s.Puts += o.Puts
	s.Dups += o.Dups
	s.Gets += o.Gets
	s.DupBytes += o.DupBytes
	s.ReadBytes += o.ReadBytes
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
	s.CacheBytes += o.CacheBytes
}

// HitRatio returns the fraction of cached-store Gets served from the
// cache, in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// DedupRatio returns the fraction of put traffic absorbed by
// deduplication, in [0, 1].
func (s Stats) DedupRatio() float64 {
	if s.Puts == 0 {
		return 0
	}
	return float64(s.Dups) / float64(s.Puts)
}

func (s Stats) String() string {
	return fmt.Sprintf("chunks=%d bytes=%d puts=%d dups=%d (%.1f%%)",
		s.Chunks, s.Bytes, s.Puts, s.Dups, 100*s.DedupRatio())
}

// GetVerified fetches a chunk and checks that the store answered with
// the chunk asked for: its id is the requested cid, else ErrCorrupt. It
// compares ids and hashes nothing, so it catches a layer that serves
// the wrong chunk (a mis-routed pool member, a confused cache), not one
// that serves wrong bytes under the right id; Verified catches both.
func GetVerified(s Store, id chunk.ID) (*chunk.Chunk, error) {
	c, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if err := c.Verify(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, nil
}

// verifiedStore rehashes every read; see Verified.
type verifiedStore struct {
	Store
}

func (v verifiedStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	c, err := v.Store.Get(id)
	if err != nil {
		return nil, err
	}
	if err := c.Rehash(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, nil
}

// Unwrap returns the backing store, letting the collector find the
// Collectable at the bottom of a wrapped stack.
func (v verifiedStore) Unwrap() Store { return v.Store }

// Verified wraps a store so that every Get recomputes the returned
// chunk's sha256 and compares it with the requested cid, turning any
// substitution or bit-rot the backing layer missed — a record rewritten
// with a valid crc included — into ErrCorrupt. It is the defence
// against a tampering storage provider (§2.3): no layer below it is
// trusted. Stack it below a Cache so each chunk is rehashed once, when
// it enters the cache.
func Verified(s Store) Store { return verifiedStore{s} }
