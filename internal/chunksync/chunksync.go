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
	DefaultFetchBatch = 512
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

// DefaultPullWindow is the number of fetch batches Pull keeps in
// flight at once.
const DefaultPullWindow = 2

// PullConfig tunes Pull's prefetch pipeline.
type PullConfig struct {
	// Batch caps ids per Fetch request (0 means DefaultFetchBatch).
	Batch int
	// Window is the number of fetch batches kept in flight at once
	// (0 or less means DefaultPullWindow).
	Window int
}

func (c PullConfig) batch() int {
	if c.Batch <= 0 {
		return DefaultFetchBatch
	}
	return c.Batch
}

func (c PullConfig) window() int {
	if c.Window <= 0 {
		return DefaultPullWindow
	}
	return c.Window
}

// Pull completes the POS-Tree rooted at root in local: it walks the
// tree top-down, resolves index nodes on demand (reading them locally
// when present, fetching them when not), and fetches exactly the
// chunks local is missing. Leaves are fetched but never decoded. Every
// fetched chunk is verified against the id it was requested under
// before it is admitted to local. height is the tree's level count as
// recorded in its chunk reference.
//
// Fetching is pipelined: up to cfg.Window batches are outstanding
// concurrently, and newly discovered ids (children of an index node
// that just arrived) are dispatched as soon as a window slot frees,
// without waiting for the rest of the node's level. On a high-latency
// link this overlaps the per-level round trips that dominate a cold
// read. Workers verify and admit chunks concurrently; discovery and
// dispatch stay on the caller's goroutine. The first error cancels the
// outstanding fetches, and Pull returns only after every worker has
// exited — no goroutines or fetches are leaked, even on
// context cancellation.
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
// (1 for a leaf), in one pipelined walk — a fetch batch mixes ids of
// different subtrees, so n siblings cost the round trips of one.
// Iteration over a chunk-synced tree calls it with the child it is
// about to enter and the siblings after it (postree.Filler).
func PullSubtrees(ctx context.Context, local store.Store, fetch FetchFunc, roots []chunk.ID, level int, cfg PullConfig) (Stats, error) {
	var st Stats
	p := &puller{
		local:   local,
		fetch:   fetch,
		batch:   cfg.batch(),
		window:  cfg.window(),
		seen:    make(map[chunk.ID]bool, len(roots)),
		results: make(chan pullResult),
		st:      &st,
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, root := range roots {
		if p.seen[root] {
			continue
		}
		p.seen[root] = true
		if err := p.admitOrQueue(pullItem{id: root, h: level}); err != nil {
			return st, err
		}
	}
	var firstErr error
	for len(p.queue) > 0 || p.inflight > 0 {
		for firstErr == nil && p.inflight < p.window && len(p.queue) > 0 {
			p.dispatch(cctx)
		}
		if p.inflight == 0 {
			break // firstErr != nil and nothing left to drain
		}
		res := <-p.results
		p.inflight--
		p.st.ChunksFetched += res.fetched
		p.st.BytesFetched += res.bytes
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
				cancel() // abort the rest of the window
			}
			continue
		}
		if firstErr != nil {
			continue // draining; don't expand or dispatch further
		}
		for _, it := range res.items {
			if it.h <= 1 {
				continue
			}
			if err := p.expand(it); err != nil {
				firstErr = err
				cancel()
				break
			}
		}
	}
	return st, firstErr
}

// pullItem is one chunk the walk still owes: its id and its level in
// the tree (leaves are level 1).
type pullItem struct {
	id chunk.ID
	h  int
}

// pullResult is one fetch batch's outcome: the items whose chunks were
// verified and admitted, and the payload bytes that moved.
type pullResult struct {
	items   []pullItem
	fetched int
	bytes   int64
	err     error
}

// puller is Pull's dispatch state. Only fetchWorker goroutines run
// concurrently with the main loop; everything here is owned by the
// main loop, and workers communicate solely over results.
type puller struct {
	local    store.Store
	fetch    FetchFunc
	batch    int
	window   int
	seen     map[chunk.ID]bool
	queue    []pullItem
	inflight int
	results  chan pullResult
	st       *Stats
}

// admitOrQueue routes one newly discovered id: locally held index
// nodes are expanded immediately (a memory read), locally held leaves
// are counted, and missing chunks join the fetch queue. Callers must
// have marked the id seen.
func (p *puller) admitOrQueue(it pullItem) error {
	if !p.local.Has(it.id) {
		p.queue = append(p.queue, it)
		return nil
	}
	p.st.ChunksLocal++
	if it.h <= 1 {
		return nil
	}
	return p.expand(it)
}

// expand reads a locally present index node and routes its unseen
// children. Iterative with an explicit stack: a partially pulled tree
// can hold arbitrarily deep local index paths.
func (p *puller) expand(it pullItem) error {
	stack := []pullItem{it}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, err := store.GetVerified(p.local, cur.id)
		if err != nil {
			return err
		}
		kids, err := postree.IndexChildIDs(c.Data())
		if err != nil {
			return err
		}
		for _, kid := range kids {
			if p.seen[kid] {
				continue
			}
			p.seen[kid] = true
			child := pullItem{id: kid, h: cur.h - 1}
			if !p.local.Has(kid) {
				p.queue = append(p.queue, child)
				continue
			}
			p.st.ChunksLocal++
			if child.h > 1 {
				stack = append(stack, child)
			}
		}
	}
	return nil
}

// dispatch launches one fetch batch off the front of the queue.
func (p *puller) dispatch(ctx context.Context) {
	n := len(p.queue)
	if n > p.batch {
		n = p.batch
	}
	items := make([]pullItem, n)
	copy(items, p.queue[:n])
	p.queue = p.queue[n:]
	p.inflight++
	go fetchWorker(ctx, p.local, p.fetch, items, p.results)
}

// fetchWorker fetches, verifies, and admits one batch of chunks, then
// reports. It always sends exactly one result.
func fetchWorker(ctx context.Context, local store.Store, fetch FetchFunc, items []pullItem, results chan<- pullResult) {
	res := pullResult{items: items}
	ids := make([]chunk.ID, len(items))
	for i, it := range items {
		ids[i] = it.id
	}
	var st Stats
	res.err = fetchInto(ctx, local, fetch, ids, len(ids), &st)
	res.fetched = st.ChunksFetched
	res.bytes = st.BytesFetched
	results <- res
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
