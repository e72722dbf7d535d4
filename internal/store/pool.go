package store

import (
	"errors"
	"fmt"

	"forkbase/internal/chunk"
)

// Pool federates several chunk-storage instances into one logical store,
// the "large pool of storage accessible by any remote servlet" of §4.1.
// Chunks are placed by cid, the second layer of the two-layer
// partitioning scheme of §4.6: each chunk lives on its home member only.
type Pool struct {
	members []Store
}

// NewPool builds a pool over members.
func NewPool(members []Store) *Pool {
	if len(members) == 0 {
		panic("store: empty pool")
	}
	return &Pool{members: members}
}

// home returns the index of the member responsible for id. Because cids
// are cryptographic hashes, placement is uniform even under severely
// skewed key workloads (§4.6).
func (p *Pool) home(id chunk.ID) int {
	v := uint64(id[24]) | uint64(id[25])<<8 | uint64(id[26])<<16 | uint64(id[27])<<24 |
		uint64(id[28])<<32 | uint64(id[29])<<40 | uint64(id[30])<<48 | uint64(id[31])<<56
	return int(v % uint64(len(p.members)))
}

// Home exposes the placement decision for instrumentation (Fig 15).
func (p *Pool) Home(id chunk.ID) int { return p.home(id) }

// Put implements Store, writing the chunk to its home member.
func (p *Pool) Put(c *chunk.Chunk) (bool, error) {
	return p.members[p.home(c.ID())].Put(c)
}

// Get implements Store, reading from the home member. A missing chunk
// is ErrNotFound; any other failure there surfaces wrapped with the
// member's index.
func (p *Pool) Get(id chunk.ID) (*chunk.Chunk, error) {
	h := p.home(id)
	c, err := p.members[h].Get(id)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("store: pool member %d: %w", h, err)
	}
	return c, err
}

// Has implements Store.
func (p *Pool) Has(id chunk.ID) bool {
	return p.members[p.home(id)].Has(id)
}

// Stats implements Store by summing member stats.
func (p *Pool) Stats() Stats {
	var out Stats
	for _, m := range p.members {
		out.Add(m.Stats())
	}
	return out
}

// Close implements Store.
func (p *Pool) Close() error {
	var first error
	for _, m := range p.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
