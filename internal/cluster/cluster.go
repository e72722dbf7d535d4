// Package cluster implements the distributed deployment of ForkBase
// (paper §4.1, §4.6): a master holding cluster runtime information, a
// request dispatcher, N servlets each owning a hash slice of the key
// space, and the two-layer partitioning scheme that spreads chunks
// across all chunk-storage instances by cid.
//
// The paper evaluates on a 64-node cluster over 1 GbE. This package
// simulates that cluster in one process: servlets run as independent
// single-threaded workers connected by channels. Partitioning, routing
// and the 1LP/2LP placement policies are implemented for real; only
// the transport is simulated (see README, Architecture).
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/postree"
	"forkbase/internal/servlet"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// Placement selects how a servlet's chunks are placed on chunk storage.
type Placement int

const (
	// OneLayer (1LP) stores all of a key's chunks on the servlet that
	// owns the key. Skewed key workloads skew storage (Figure 15).
	OneLayer Placement = iota
	// TwoLayer (2LP) partitions ordinary chunks across all storage
	// instances by cid; only meta chunks stay local (§4.6). Storage
	// stays balanced even under skew.
	TwoLayer
)

// Options configures a cluster.
type Options struct {
	// Nodes is the number of servlet/chunk-storage pairs.
	Nodes int
	// Placement selects 1LP or 2LP chunk placement.
	Placement Placement
	// CacheBytes bounds a per-servlet chunk cache in front of the 2LP
	// shared pool, where a miss costs a (simulated) remote hop; 0
	// disables caching. Meta chunks are already local and bypass it.
	CacheBytes int64
	// VerifyReads re-verifies every chunk read — from a servlet's own
	// node storage (either placement) and from the shared 2LP pool —
	// against its cid before it is used or cached.
	VerifyReads bool
}

// Master maintains cluster runtime information: the member list and the
// key-space routing table (§4.1).
type Master struct {
	members []int // servlet ids, index = hash slot
}

// Route returns the servlet id owning the key.
func (m *Master) Route(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return m.members[int(h.Sum32())%len(m.members)]
}

// Cluster is a simulated multi-servlet ForkBase deployment.
type Cluster struct {
	opts     Options
	master   *Master
	servlets []*servlet.Servlet
	nodes    []*store.MemStore // per-node chunk storage
	caches   []*store.Cache    // per-servlet pool caches (GC invalidation)
}

// metaLocalStore routes Meta chunks to the servlet's local storage and
// everything else through the shared pool — "meta chunks are always
// stored locally" (§4.6). pool is the servlet's view of the shared
// pool, optionally stacked with verification and a chunk cache so the
// simulated remote hop is paid once per chunk, not once per read.
type metaLocalStore struct {
	local store.Store
	pool  store.Store
}

func (m *metaLocalStore) Put(c *chunk.Chunk) (bool, error) {
	if c.Type() == chunk.TypeMeta {
		return m.local.Put(c)
	}
	return m.pool.Put(c)
}

func (m *metaLocalStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	if c, err := m.local.Get(id); err == nil {
		return c, nil
	}
	return m.pool.Get(id)
}

func (m *metaLocalStore) Has(id chunk.ID) bool {
	return m.local.Has(id) || m.pool.Has(id)
}

// Stats reports the node's local storage plus its own pool-cache
// counters; the shared pool's traffic is deliberately excluded, since
// summing it once per node would multi-count it.
func (m *metaLocalStore) Stats() store.Stats {
	s := m.local.Stats()
	if c, ok := m.pool.(*store.Cache); ok {
		s.Add(c.CacheCounters())
	}
	return s
}
func (m *metaLocalStore) Close() error { return nil }

// New starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 node")
	}
	c := &Cluster{opts: opts, master: &Master{}}
	// Each node's storage is wrapped once: that one view is both its
	// servlet's local store and, under 2LP, its member of the shared
	// pool, so a chunk is verified on every read whichever path finds it.
	views := make([]store.Store, opts.Nodes)
	for i := range views {
		node := store.NewMemStore()
		c.nodes = append(c.nodes, node)
		c.master.members = append(c.master.members, i)
		views[i] = node
		if opts.VerifyReads {
			views[i] = store.Verified(node)
		}
	}
	var pool *store.Pool
	if opts.Placement == TwoLayer {
		pool = store.NewPool(views)
	}
	for i, local := range views {
		s := local
		if pool != nil {
			// Each servlet gets its own cache over the shared pool (the
			// simulated network hop is the dominant read cost); chunks
			// arrive already verified by the member views.
			var shared store.Store = pool
			if opts.CacheBytes > 0 {
				ca := store.NewCache(shared, opts.CacheBytes)
				c.caches = append(c.caches, ca)
				shared = ca
			}
			s = &metaLocalStore{local: local, pool: shared}
		}
		c.servlets = append(c.servlets, servlet.New(i, s, postree.DefaultConfig()))
	}
	return c, nil
}

// Close stops all servlets.
func (c *Cluster) Close() {
	for _, sv := range c.servlets {
		sv.Close()
	}
}

// Master returns the cluster master.
func (c *Cluster) Master() *Master { return c.master }

// Servlet returns servlet i (for instrumentation).
func (c *Cluster) Servlet(i int) *servlet.Servlet { return c.servlets[i] }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.servlets) }

// NodeStorageBytes returns the bytes held by each node's local chunk
// storage; Figure 15 plots its distribution under skew.
func (c *Cluster) NodeStorageBytes() []int64 {
	out := make([]int64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Stats().Bytes
	}
	return out
}

// Exec is the dispatcher's request path (§4.1): it routes key to the
// owning servlet and executes fn on the servlet's execution thread.
// Who may run what is fn's business — the client hands in the Store
// op's contract method — the cluster only routes.
func (c *Cluster) Exec(ctx context.Context, key string, fn func(eng *core.Engine) error) error {
	return c.servlets[c.master.Route(key)].ExecCtx(ctx, fn)
}

// PutBatch applies a group of writes, dispatching once per owning
// servlet instead of once per write: entries are grouped by route and
// each servlet executes its group as one engine PutBatch (one
// dispatch and one queue slot per servlet). Returns uids in entry order.
// Atomicity is per key, as in Engine.PutBatch; entries for different
// servlets may commit even when another servlet's group fails.
func (c *Cluster) PutBatch(ctx context.Context, puts []core.BatchPut) ([]types.UID, error) {
	groups := make(map[int][]int)
	var order []int
	for i, p := range puts {
		owner := c.master.Route(string(p.Key))
		if _, ok := groups[owner]; !ok {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], i)
	}
	// The per-servlet groups are independent (atomicity is per key),
	// so dispatch them concurrently: batch latency is the slowest
	// group's, not the sum of all groups.
	uids := make([]types.UID, len(puts))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for gi, owner := range order {
		idxs := groups[owner]
		group := make([]core.BatchPut, len(idxs))
		for j, i := range idxs {
			group[j] = puts[i]
		}
		wg.Add(1)
		go func(gi, owner int, idxs []int, group []core.BatchPut) {
			defer wg.Done()
			errs[gi] = c.servlets[owner].ExecCtx(ctx, func(eng *core.Engine) error {
				got, err := eng.PutBatch(ctx, group)
				if err != nil {
					return err
				}
				for j, i := range idxs {
					uids[i] = got[j]
				}
				return nil
			})
		}(gi, owner, idxs, group)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return uids, nil
}

// ListKeys returns the union of keys across all servlets (M8), sorted.
func (c *Cluster) ListKeys(ctx context.Context) ([]string, error) {
	var all []string
	for _, sv := range c.servlets {
		err := sv.ExecCtx(ctx, func(eng *core.Engine) error {
			all = append(all, eng.ListKeys()...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(all)
	return all, nil
}

// GC runs one dedup-aware collection across the whole cluster. The
// mark must be global before any node sweeps: under two-layer
// placement a chunk on node i may be reachable only through a key
// owned by servlet j, so per-node collection with a local mark would
// destroy live data. The protocol:
//
//  1. open the write-protection window on every node's storage, so
//     chunks written by requests racing the collection are shielded;
//  2. enumerate each servlet's roots on its execution thread (branch
//     heads, untagged heads, pins) and mark through that servlet's own
//     store view — meta chunks resolve locally, tree chunks through
//     the shared pool;
//  3. sweep every node with the one global live set, then drop what
//     the sweeps reclaimed from the per-servlet pool caches.
//
// The mark is always full: the servlets' roots move independently, and
// no node's store knows which of its chunks the global mark found.
func (c *Cluster) GC(ctx context.Context) (store.GCStats, error) {
	for _, n := range c.nodes {
		n.BeginGC()
	}
	defer func() {
		for _, n := range c.nodes {
			n.EndGC()
		}
	}()
	live := store.NewLiveSet()
	for _, sv := range c.servlets {
		var roots []types.UID
		if err := sv.ExecCtx(ctx, func(eng *core.Engine) error {
			roots = eng.Roots()
			return nil
		}); err != nil {
			return store.GCStats{}, err
		}
		if err := store.Mark(ctx, sv.Engine().Store(), live, roots, types.ChunkRefs); err != nil {
			return store.GCStats{}, err
		}
	}
	var total store.GCStats
	var dead []chunk.ID
	defer func() {
		for _, ca := range c.caches {
			ca.Drop(dead)
		}
	}()
	for i, n := range c.nodes {
		s, d, err := n.Sweep(live.Contains, 0)
		total.Add(s)
		dead = append(dead, d...)
		if err != nil {
			return total, fmt.Errorf("cluster: node %d sweep: %w", i, err)
		}
	}
	total.Marked = live.Len()
	return total, nil
}
