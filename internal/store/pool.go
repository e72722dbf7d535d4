package store

import (
	"errors"
	"fmt"

	"forkbase/internal/chunk"
)

// Pool federates several chunk-storage instances into one logical store,
// the "large pool of storage accessible by any remote servlet" of §4.1.
// Chunks are placed by cid (the second layer of the two-layer
// partitioning scheme of §4.6) and optionally replicated onto the next
// k-1 instances for durability (§4.4).
type Pool struct {
	members  []Store
	replicas int
}

// NewPool builds a pool over members with the given replication factor
// (clamped to [1, len(members)]).
func NewPool(members []Store, replicas int) *Pool {
	if len(members) == 0 {
		panic("store: empty pool")
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(members) {
		replicas = len(members)
	}
	return &Pool{members: members, replicas: replicas}
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

// Member returns the i-th underlying store.
func (p *Pool) Member(i int) Store { return p.members[i] }

// Members returns the number of underlying stores.
func (p *Pool) Members() int { return len(p.members) }

// Put implements Store, writing the chunk to its home member and its
// replicas. dup reports deduplication at the home member.
func (p *Pool) Put(c *chunk.Chunk) (bool, error) {
	h := p.home(c.ID())
	dup, err := p.members[h].Put(c)
	if err != nil {
		return false, err
	}
	for i := 1; i < p.replicas; i++ {
		if _, err := p.members[(h+i)%len(p.members)].Put(c); err != nil {
			return dup, fmt.Errorf("store: replica %d: %w", i, err)
		}
	}
	return dup, nil
}

// Get implements Store, preferring the home member and falling over to
// replicas. Any failure at the home member — not just a missing chunk —
// falls through to the replicas; that tolerance for a corrupt or
// erroring member is what the replication factor buys. Only when every
// replica fails is an error surfaced, preferring the first real fault
// over ErrNotFound.
func (p *Pool) Get(id chunk.ID) (*chunk.Chunk, error) {
	h := p.home(id)
	var firstErr error
	for i := 0; i < p.replicas; i++ {
		c, err := p.members[(h+i)%len(p.members)].Get(id)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, ErrNotFound) && firstErr == nil {
			firstErr = fmt.Errorf("store: pool member %d: %w", (h+i)%len(p.members), err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNotFound
}

// Has implements Store.
func (p *Pool) Has(id chunk.ID) bool {
	h := p.home(id)
	for i := 0; i < p.replicas; i++ {
		if p.members[(h+i)%len(p.members)].Has(id) {
			return true
		}
	}
	return false
}

// Stats implements Store by summing member stats.
func (p *Pool) Stats() Stats {
	var out Stats
	for _, m := range p.members {
		out.Add(m.Stats())
	}
	return out
}

// BeginGC implements Collectable by opening the protection window on
// every collectable member; a non-collectable member is skipped here
// and makes Sweep fail, so the window never half-opens silently.
func (p *Pool) BeginGC() {
	for _, m := range p.members {
		if col, _, ok := AsCollectable(m); ok {
			col.BeginGC()
		}
	}
}

// Protect implements Collectable on every collectable member: replicas
// of an id are kept or dropped together.
func (p *Pool) Protect(ids []chunk.ID) {
	for _, m := range p.members {
		if col, _, ok := AsCollectable(m); ok {
			col.Protect(ids)
		}
	}
}

// EndGC implements Collectable.
func (p *Pool) EndGC() {
	for _, m := range p.members {
		if col, _, ok := AsCollectable(m); ok {
			col.EndGC()
		}
	}
}

// Sweep implements Collectable by sweeping every member with the same
// live set. Replicas hold copies of the same cids, so sweeping each
// member against one shared mark keeps the replica set consistent: a
// chunk is either retained on all members that hold it or reclaimed
// from all of them. The ids returned are every member's, so a replicated
// id appears once per replica.
func (p *Pool) Sweep(live func(chunk.ID) bool, threshold float64) (GCStats, []chunk.ID, error) {
	var total GCStats
	var dead []chunk.ID
	for i, m := range p.members {
		col, caches, ok := AsCollectable(m)
		if !ok {
			return total, dead, fmt.Errorf("store: pool member %d: %w", i, ErrNotCollectable)
		}
		s, d, err := col.Sweep(live, threshold)
		total.Add(s)
		dead = append(dead, d...)
		for _, ca := range caches {
			ca.Drop(d)
		}
		if err != nil {
			return total, dead, fmt.Errorf("store: pool member %d: %w", i, err)
		}
	}
	return total, dead, nil
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
