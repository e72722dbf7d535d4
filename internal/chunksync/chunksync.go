// Package chunksync implements chunk-granular transfer of POS-Trees:
// the negotiation and traversal logic that lets two content-addressed
// stores exchange only the chunks one of them is missing, instead of
// materializing whole values. It is the paper's deduplication argument
// (§3.4) applied to the network — after a small edit to a large
// object, the two versions' trees share all but a handful of chunks,
// so syncing the new version should move only that handful.
//
// The package is transport-agnostic: callers supply the three wire
// primitives as closures (HaveFunc answers "which of these ids do you
// hold", FetchFunc returns raw chunk bytes by id, SendFunc uploads
// chunks), and this package contributes the tree walks, batching, and
// verification around them. Both ends re-verify every chunk that
// crosses the boundary: a fetched or received chunk is admitted only
// if its bytes hash to the id it was claimed under, so a hostile or
// corrupted peer can waste a request but never poison a store.
package chunksync

import (
	"context"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// Default batching knobs. Have batches are bounded by id count (32
// bytes each); fetch batches by id count with the responder free to
// answer a prefix; send batches by cumulative payload bytes.
const (
	// DefaultHaveBatch is the largest id list per Have request.
	DefaultHaveBatch = 4096
	// DefaultFetchBatch is the largest id list per Fetch request.
	DefaultFetchBatch = 1024
	// DefaultSendBytes is the target payload size per Send request.
	DefaultSendBytes = 4 << 20
)

// HaveFunc answers, for each id, whether the remote end already holds
// the chunk. The result is aligned with ids.
type HaveFunc func(ctx context.Context, ids []chunk.ID) ([]bool, error)

// FetchFunc returns raw serialized chunk bytes for a non-empty prefix
// of ids (a responder may stop early to bound its reply); entries are
// aligned with that prefix, nil where the remote holds nothing.
type FetchFunc func(ctx context.Context, ids []chunk.ID) ([][]byte, error)

// SendFunc uploads a batch of chunks to the remote end.
type SendFunc func(ctx context.Context, chunks []*chunk.Chunk) error

// Stats counts a transfer's work. Byte counts cover chunk payloads
// only (framing overhead is the transport's business).
type Stats struct {
	// ChunksFetched and BytesFetched cover chunks pulled from the
	// remote end; ChunksLocal counts the ones the local store already
	// held, i.e. the fetches deduplication saved.
	ChunksFetched int
	BytesFetched  int64
	ChunksLocal   int
	// ChunksSent and BytesSent cover chunks pushed to the remote end;
	// ChunksSkipped counts the ones negotiation proved already there.
	ChunksSent    int
	BytesSent     int64
	ChunksSkipped int
}

// PullConfig tunes Pull's fetch batching.
type PullConfig struct {
	// Batch caps ids per Fetch request (0 means DefaultFetchBatch).
	Batch int
}

func (c PullConfig) batch() int {
	if c.Batch <= 0 {
		return DefaultFetchBatch
	}
	return c.Batch
}

// Pull completes the POS-Tree rooted at root in local: it walks the
// tree top-down, resolves index nodes on demand (reading them locally
// when present, fetching them when not), and fetches exactly the
// chunks local is missing. Leaves are fetched but never decoded. Every
// fetched chunk is verified against the id it was requested under
// before it is admitted to local. height is the tree's level count as
// recorded in its chunk reference.
//
// The walk is one loop on the caller's goroutine with one fetch
// outstanding: take up to cfg.Batch ids off the discovery queue, fetch
// and admit them, queue the children of the index nodes among them,
// and repeat until the queue is empty. A batch mixes ids of different
// levels, so a level narrower than a batch costs no round trip of its
// own. The first error ends the pull; what was admitted before it
// stays in local.
//
// Partially-pulled trees (an earlier Pull cancelled mid-way) are
// handled by construction: presence of an index node never implies
// presence of its subtree, because the walk descends into every index
// node — local ones cost a memory read, not a fetch.
func Pull(ctx context.Context, local store.Store, fetch FetchFunc, root chunk.ID, height int, cfg PullConfig) (Stats, error) {
	if root.IsNil() {
		return Stats{}, nil
	}
	return PullSubtrees(ctx, local, fetch, []chunk.ID{root}, height, cfg)
}

// PullSubtrees is Pull over several subtrees at once: it completes, in
// local, the subtree under each of roots, all of which sit at level
// (1 for a leaf), in one walk — a fetch batch mixes ids of different
// subtrees, so n siblings cost the round trips of one.
// Iteration over a chunk-synced tree calls it with the child it is
// about to enter and the siblings after it (postree.Filler).
func PullSubtrees(ctx context.Context, local store.Store, fetch FetchFunc, roots []chunk.ID, level int, cfg PullConfig) (Stats, error) {
	p := &puller{local: local, seen: make(map[chunk.ID]bool, len(roots))}
	if err := p.discover(roots, level); err != nil {
		return p.st, err
	}
	batch := cfg.batch()
	var ids []chunk.ID
	for len(p.queue) > 0 {
		items := p.queue[:min(batch, len(p.queue))]
		p.queue = p.queue[len(items):]
		ids = ids[:0]
		for _, it := range items {
			ids = append(ids, it.id)
		}
		if err := fetchInto(ctx, local, fetch, ids, len(ids), &p.st); err != nil {
			return p.st, err
		}
		for _, it := range items {
			if it.h <= 1 {
				continue
			}
			kids, err := p.children(it.id)
			if err == nil {
				err = p.discover(kids, it.h-1)
			}
			if err != nil {
				return p.st, err
			}
		}
	}
	return p.st, nil
}

// pullItem is one chunk the walk still owes: its id and its level in
// the tree (leaves are level 1).
type pullItem struct {
	id chunk.ID
	h  int
}

// puller is PullSubtrees' walk state: the ids seen so far, the missing
// ones not yet fetched, and the counts.
type puller struct {
	local store.Store
	seen  map[chunk.ID]bool
	queue []pullItem
	st    Stats
}

// discover routes ids newly found at level h: missing chunks join the
// fetch queue, locally held leaves are counted, and locally held index
// nodes are expanded at once (a memory read). Iterative with an
// explicit stack: a partially pulled tree can hold arbitrarily deep
// local index paths.
func (p *puller) discover(ids []chunk.ID, h int) error {
	var stack []pullItem
	for {
		for _, id := range ids {
			if p.seen[id] {
				continue
			}
			p.seen[id] = true
			if !p.local.Has(id) {
				p.queue = append(p.queue, pullItem{id: id, h: h})
				continue
			}
			p.st.ChunksLocal++
			if h > 1 {
				stack = append(stack, pullItem{id: id, h: h})
			}
		}
		if len(stack) == 0 {
			return nil
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var err error
		if ids, err = p.children(cur.id); err != nil {
			return err
		}
		h = cur.h - 1
	}
}

// children reads the child ids of an index node local holds.
func (p *puller) children(id chunk.ID) ([]chunk.ID, error) {
	c, err := store.GetVerified(p.local, id)
	if err != nil {
		return nil, err
	}
	return postree.IndexChildIDs(c.Data())
}

// fetchInto pulls the given ids into local, verifying each chunk
// against the id it was requested under.
func fetchInto(ctx context.Context, local store.Store, fetch FetchFunc, ids []chunk.ID, batch int, st *Stats) error {
	for len(ids) > 0 {
		n := len(ids)
		if n > batch {
			n = batch
		}
		got, err := fetch(ctx, ids[:n])
		if err != nil {
			return err
		}
		if len(got) == 0 || len(got) > n {
			return fmt.Errorf("chunksync: fetch answered %d of %d ids", len(got), n)
		}
		for i, raw := range got {
			if raw == nil {
				return fmt.Errorf("chunksync: chunk %s: %w", ids[i].Short(), store.ErrNotFound)
			}
			c, err := chunk.Decode(raw)
			if err != nil {
				return fmt.Errorf("chunksync: chunk %s: %w", ids[i].Short(), err)
			}
			if c.ID() != ids[i] {
				return fmt.Errorf("chunksync: fetched chunk hashes to %s, requested %s: %w",
					c.ID().Short(), ids[i].Short(), store.ErrCorrupt)
			}
			if _, err := local.Put(c); err != nil {
				return err
			}
			st.ChunksFetched++
			st.BytesFetched += int64(len(raw))
		}
		ids = ids[len(got):]
	}
	return nil
}

// Missing negotiates which of ids the remote end lacks, preserving
// first-occurrence order and collapsing duplicates. batch caps ids per
// Have request (0 means DefaultHaveBatch).
func Missing(ctx context.Context, ids []chunk.ID, have HaveFunc, batch int, st *Stats) ([]chunk.ID, error) {
	if batch <= 0 {
		batch = DefaultHaveBatch
	}
	unique := make([]chunk.ID, 0, len(ids))
	seen := make(map[chunk.ID]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			unique = append(unique, id)
		}
	}
	var missing []chunk.ID
	for len(unique) > 0 {
		n := len(unique)
		if n > batch {
			n = batch
		}
		got, err := have(ctx, unique[:n])
		if err != nil {
			return nil, err
		}
		if len(got) != n {
			return nil, fmt.Errorf("chunksync: have answered %d of %d ids", len(got), n)
		}
		for i, present := range got {
			if present {
				st.ChunksSkipped++
			} else {
				missing = append(missing, unique[i])
			}
		}
		unique = unique[n:]
	}
	return missing, nil
}

// Push uploads the given chunks from src, batched by cumulative
// payload size (maxBytes; 0 means DefaultSendBytes — a batch always
// carries at least one chunk, so a single chunk larger than the target
// still ships alone).
func Push(ctx context.Context, src store.Store, ids []chunk.ID, send SendFunc, maxBytes int, st *Stats) error {
	if maxBytes <= 0 {
		maxBytes = DefaultSendBytes
	}
	var batch []*chunk.Chunk
	var batchBytes int
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := send(ctx, batch); err != nil {
			return err
		}
		for _, c := range batch {
			st.ChunksSent++
			st.BytesSent += int64(c.Size())
		}
		batch, batchBytes = batch[:0], 0
		return nil
	}
	for _, id := range ids {
		c, err := store.GetVerified(src, id)
		if err != nil {
			return err
		}
		if len(batch) > 0 && batchBytes+c.Size() > maxBytes {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, c)
		batchBytes += c.Size()
	}
	return flush()
}
