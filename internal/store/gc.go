package store

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"forkbase/internal/chunk"
)

// Garbage collection (the dedup-aware collector the paper's chunk store
// needs once branches can be removed). Chunks are content-addressed and
// shared across versions, objects and keys, so "delete version X" can
// never delete chunks directly: a chunk is garbage only when NO root on
// ANY key reaches it through the Merkle DAG. Collection is therefore
// mark-and-sweep over the whole store:
//
//	mark:  walk the DAG from every root (branch heads, untagged heads,
//	       pins), accumulating live cids in a LiveSet;
//	sweep: every Collectable store drops chunks absent from the set,
//	       compacting its physical layout where worthwhile.
//
// A Collector makes the next collection cost what changed since the
// last: it walks only the chunks written since and sweeps only those,
// whenever that gives exactly the result of a full collection.
//
// Concurrent writes are safe without stopping the world: BeginGC opens
// a protection window during which every Put — including a Put absorbed
// by deduplication — shields its cid from the sweep. A version written
// mid-collection consists of chunks that are either freshly Put (and so
// protected), or shared with its base version, whose chunks the marker
// reached through the root that base descends from. The one exception
// is deriving from a version that was already unreachable when the mark
// began (a dangling uid held only by the client); pin it first, exactly
// as git requires an object to be referenced before gc.
var (
	// ErrNotCollectable is returned when the bottom of a store stack
	// does not implement Collectable.
	ErrNotCollectable = errors.New("store: store does not support garbage collection")
	// ErrSweepInProgress is returned by Sweep when another collection
	// is already sweeping the same store. Callers for whom any
	// collection is as good as their own (auto-GC) treat it as benign.
	ErrSweepInProgress = errors.New("store: sweep already in progress")
)

// DefaultGCThreshold is the live ratio below which a sealed segment is
// compacted: segments more than half garbage are rewritten.
const DefaultGCThreshold = 0.5

// Collectable is implemented by stores that can reclaim dead chunks.
type Collectable interface {
	Store
	// BeginGC opens a protection window: every chunk written (or
	// deduplicated) until the matching EndGC is shielded from Sweep,
	// closing the mark/write race for chunks the marker cannot know
	// about. Windows nest; protection clears when the last one ends.
	BeginGC()
	// Protect shields ids from the sweep of an open window as a Put of
	// them would, for chunks a caller promised to keep without writing
	// them (a chunk-sync Have that answered "present"). Outside a
	// window it does nothing: the next collection reads its roots after
	// opening its window, so it sees the caller's own roots instead.
	Protect(ids []chunk.ID)
	// Sweep deletes every chunk that is neither reported live nor
	// protected by the open window, and compacts physical storage
	// whose live ratio falls below threshold (see DefaultGCThreshold;
	// <=0 applies the default). It returns the ids it deleted, also on
	// failure, so that every cache above the store can drop exactly
	// those. Callers must hold a BeginGC window spanning the mark phase
	// and the Sweep.
	Sweep(live func(chunk.ID) bool, threshold float64) (GCStats, []chunk.ID, error)
	// EndGC closes the protection window opened by BeginGC.
	EndGC()
}

// GCStats reports one collection's effect.
type GCStats struct {
	// Marked counts the mark set: every live chunk under a full
	// collection. Under a young-only one (see Collector) it counts the
	// chunks its walk reached: the young live chunks, plus the roots
	// and old chunks where the walk stopped; the old chunks it kept
	// without reaching are not counted.
	Marked            int
	Reclaimed         int   // chunks deleted
	ReclaimedBytes    int64 // on-disk bytes those chunks occupied
	Relocated         int   // live chunks rewritten during compaction
	RelocatedBytes    int64 // on-disk bytes rewritten
	SegmentsCompacted int   // segment files rewritten and removed
	// SegmentsKept counts the segment files the sweep examined and
	// retained above the threshold. A young-only sweep examines only
	// the segments holding a young chunk, so a segment of old chunks
	// alone is neither examined nor counted.
	SegmentsKept int
}

// Add accumulates o into s (per-member sweeps of a pool or cluster).
func (s *GCStats) Add(o GCStats) {
	s.Marked += o.Marked
	s.Reclaimed += o.Reclaimed
	s.ReclaimedBytes += o.ReclaimedBytes
	s.Relocated += o.Relocated
	s.RelocatedBytes += o.RelocatedBytes
	s.SegmentsCompacted += o.SegmentsCompacted
	s.SegmentsKept += o.SegmentsKept
}

func (s GCStats) String() string {
	return fmt.Sprintf("gc: marked=%d reclaimed=%d (%d bytes) relocated=%d segments compacted=%d kept=%d",
		s.Marked, s.Reclaimed, s.ReclaimedBytes, s.Relocated, s.SegmentsCompacted, s.SegmentsKept)
}

// RefsFunc returns the outbound Merkle-DAG edges of a chunk: the cids
// of every chunk it references. The engine layer supplies the concrete
// decoder (types.ChunkRefs); keeping it a parameter keeps this package
// free of chunk-format knowledge.
type RefsFunc func(c *chunk.Chunk) ([]chunk.ID, error)

// LiveSet is the concurrent mark set: the cids proven reachable.
type LiveSet struct {
	mu  sync.RWMutex
	ids map[chunk.ID]struct{}
}

// NewLiveSet returns an empty mark set.
func NewLiveSet() *LiveSet {
	return &LiveSet{ids: make(map[chunk.ID]struct{})}
}

// Add inserts id, reporting whether it was newly added.
func (l *LiveSet) Add(id chunk.ID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.ids[id]; ok {
		return false
	}
	l.ids[id] = struct{}{}
	return true
}

// Contains reports whether id has been marked live.
func (l *LiveSet) Contains(id chunk.ID) bool {
	l.mu.RLock()
	_, ok := l.ids[id]
	l.mu.RUnlock()
	return ok
}

// Len returns the number of marked cids.
func (l *LiveSet) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ids)
}

// addAll inserts every id of o.
func (l *LiveSet) addAll(o *LiveSet) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for id := range o.ids {
		l.ids[id] = struct{}{}
	}
}

// Mark walks the Merkle DAG from roots through s, adding every
// reachable cid to live. Already-marked subtrees are not re-walked, so
// marking from many roots that share history costs the shared part
// once. A missing or corrupt chunk aborts the mark — sweeping with an
// incomplete mark set would destroy live data.
func Mark(ctx context.Context, s Store, live *LiveSet, roots []chunk.ID, refs RefsFunc) error {
	return mark(ctx, s, live, roots, refs, nil)
}

// mark is Mark that adds, but does not read, a chunk old reports: the
// walk stops there.
func mark(ctx context.Context, s Store, live *LiveSet, roots []chunk.ID, refs RefsFunc, old func(chunk.ID) bool) error {
	stack := make([]chunk.ID, 0, len(roots))
	for _, r := range roots {
		if !r.IsNil() {
			stack = append(stack, r)
		}
	}
	for n := 0; len(stack) > 0; n++ {
		if n%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !live.Add(id) || (old != nil && old(id)) {
			continue
		}
		c, err := GetVerified(s, id)
		if err != nil {
			return fmt.Errorf("store: mark %s: %w", id.Short(), err)
		}
		out, err := refs(c)
		if err != nil {
			return fmt.Errorf("store: mark %s: %w", id.Short(), err)
		}
		for _, o := range out {
			if !o.IsNil() && !live.Contains(o) {
				stack = append(stack, o)
			}
		}
	}
	return nil
}

// unwrapper is implemented by store wrappers (Cache, Verified) so the
// collector can find the Collectable at the bottom of a stack.
type unwrapper interface {
	Unwrap() Store
}

// AsCollectable walks a store stack through its wrappers and returns
// the first Collectable layer, plus every Cache passed on the way
// (each must drop what a sweep reclaims).
func AsCollectable(s Store) (Collectable, []*Cache, bool) {
	var caches []*Cache
	for {
		if ca, ok := s.(*Cache); ok {
			caches = append(caches, ca)
			s = ca.Unwrap()
			continue
		}
		if col, ok := s.(Collectable); ok {
			return col, caches, true
		}
		u, ok := s.(unwrapper)
		if !ok {
			return nil, caches, false
		}
		s = u.Unwrap()
	}
}

// errStaleSweep is returned by a young-only sweep whose store has swept
// (or failed a sweep) since the generation the caller named.
var errStaleSweep = errors.New("store: young-only sweep against a stale generation")

// youngSweeper is a Collectable that can tell old chunks, those its
// last completed sweep kept, from young ones, written or only protected
// since, without any per-Put bookkeeping (FileStore does it by segment
// number and that sweep's protected set).
type youngSweeper interface {
	// sweepSince is Sweep that also returns the generation it
	// completes, a number no other sweep of the store completes. With
	// since != 0 it examines only the segments holding a young entry
	// and keeps every old one; it fails with errStaleSweep unless since
	// is the generation of the last sweep, and that sweep completed.
	sweepSince(since uint64, live func(chunk.ID) bool, threshold float64) (GCStats, []chunk.ID, uint64, error)
}

// Collector runs the collections of one store and keeps what makes the
// next one cost what changed since: the previous completed
// collection's roots and mark set, and the store's sweep generation
// that collection completed. The zero value is ready to use.
//
// Only a sweep deletes, so after a completed collection every chunk
// the store holds was marked by it (old) or only protected in its
// window, or has been written since (young). If every root of that
// collection is reached again, every old chunk is still live: the next
// collection walks from the new roots, stops at old chunks, and sweeps
// the young ones alone, with exactly the result of a full collection.
// Otherwise, and whenever the store cannot tell old from young
// (MemStore, Pool) or has swept since, the same call marks and sweeps
// everything.
type Collector struct {
	mu     sync.Mutex  // serializes collections, marks included
	col    Collectable // the store the last collection swept
	gen    uint64      // its sweep generation after that; 0: none
	roots  []chunk.ID
	marked *LiveSet
}

// Forget drops the state kept from the last collection, so the next
// one marks and sweeps everything.
func (c *Collector) Forget() {
	c.mu.Lock()
	c.forgetLocked()
	c.mu.Unlock()
}

func (c *Collector) forgetLocked() {
	c.col, c.gen, c.roots, c.marked = nil, 0, nil, nil
}

// Collect runs one collection against a (possibly wrapped) store: it
// opens the protection window, enumerates roots, marks, sweeps, and
// drops what the sweep reclaimed from every cache layer. roots is
// called after the window opens so heads moved by concurrent writers
// are covered either by the enumeration or by the window. A failed,
// cancelled or refused collection leaves the next one full. The engine
// layer supplies its own root enumeration; see core.Engine.GC.
func (c *Collector) Collect(ctx context.Context, s Store, roots func() ([]chunk.ID, error), refs RefsFunc, threshold float64) (GCStats, error) {
	col, caches, ok := AsCollectable(s)
	if !ok {
		return GCStats{}, ErrNotCollectable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	gen, prevRoots, old := c.gen, c.roots, c.marked
	if col != c.col {
		gen = 0
	}
	c.forgetLocked()
	col.BeginGC()
	defer col.EndGC()
	rs, err := roots()
	if err != nil {
		return GCStats{}, err
	}
	ys, young := col.(youngSweeper)
	var (
		stats GCStats
		dead  []chunk.ID
		live  *LiveSet
	)
	if gen != 0 {
		reached := NewLiveSet()
		if err := mark(ctx, s, reached, rs, refs, old.Contains); err != nil {
			return GCStats{}, err
		}
		// A previous root not reached again may take old chunks with it:
		// only the full mark can tell.
		if containsAll(reached, prevRoots) {
			old.addAll(reached)
			live = old
			stats, dead, gen, err = ys.sweepSince(gen, live.Contains, threshold)
			stats.Marked = reached.Len()
			if errors.Is(err, errStaleSweep) {
				live = nil
			}
		}
	}
	if live == nil {
		live = NewLiveSet()
		if err := mark(ctx, s, live, rs, refs, nil); err != nil {
			return GCStats{}, err
		}
		if young {
			stats, dead, gen, err = ys.sweepSince(0, live.Contains, threshold)
		} else {
			stats, dead, err = col.Sweep(live.Contains, threshold)
		}
		stats.Marked = live.Len()
	}
	for _, ca := range caches {
		ca.Drop(dead)
	}
	if err != nil {
		return stats, err
	}
	if young {
		c.col, c.gen, c.roots, c.marked = col, gen, rs, live
	}
	return stats, nil
}

// containsAll reports whether every non-nil id is in l.
func containsAll(l *LiveSet, ids []chunk.ID) bool {
	for _, id := range ids {
		if !id.IsNil() && !l.Contains(id) {
			return false
		}
	}
	return true
}
