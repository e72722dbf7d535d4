// Package wiki implements the wiki engine of paper §5.2 on ForkBase,
// and a Redis-style multi-versioned baseline (a list of full page
// copies per key) for the Figure 13/14 comparisons.
//
// The paper's numbers come from clients talking to servers over 1 GbE;
// here both engines run in-process. To preserve the effects that stem
// from data transfer — Redis ships the whole page per read while
// ForkBase ships only the chunks the client has not cached — both
// engines report BytesFetched, and an optional FetchModel converts
// fetched bytes into simulated wire time.
package wiki

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"forkbase"
	"forkbase/internal/workload"
)

// FetchModel converts fetched bytes into simulated network time. The
// zero value adds no delay.
type FetchModel struct {
	// PerKB is the wire time per KiB transferred.
	PerKB time.Duration
}

// Delay sleeps for the simulated transfer time of n bytes.
func (m FetchModel) Delay(n int) {
	if m.PerKB > 0 && n > 0 {
		time.Sleep(time.Duration(int64(m.PerKB) * int64(n) / 1024))
	}
}

// Engine is a multi-versioned wiki page store.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// Save stores a new version of page.
	Save(ctx context.Context, c *Client, page string, content []byte) error
	// Load returns the latest version of page.
	Load(ctx context.Context, c *Client, page string) ([]byte, error)
	// LoadVersion returns the version `back` steps behind the latest.
	LoadVersion(ctx context.Context, c *Client, page string, back int) ([]byte, error)
	// Edit applies one edit to the latest version and saves it.
	Edit(ctx context.Context, c *Client, e workload.WikiEdit) error
	// StorageBytes reports the engine's storage consumption
	// (Figure 13b).
	StorageBytes() int64
	// BytesFetched reports the total bytes shipped to clients.
	BytesFetched() int64
}

// Client carries per-client state: the chunk cache that lets ForkBase
// serve consecutive-version reads mostly from already-fetched chunks
// (§5.2, Figure 14). The Redis engine has nothing to cache (every read
// ships the full value).
type Client struct {
	chunks map[string]bool // cids already fetched
}

// NewClient returns a client with an empty cache.
func NewClient() *Client {
	return &Client{chunks: make(map[string]bool)}
}

// ErrPageNotFound reports a missing page.
var ErrPageNotFound = errors.New("wiki: page not found")

// ForkBaseWiki stores each page as a Blob on the default branch; the
// version history is the Blob's derivation chain.
type ForkBaseWiki struct {
	db      *forkbase.DB
	model   FetchModel
	mu      sync.Mutex
	fetched int64
}

// NewForkBase returns a wiki engine over db.
func NewForkBase(db *forkbase.DB, model FetchModel) *ForkBaseWiki {
	return &ForkBaseWiki{db: db, model: model}
}

// Name implements Engine.
func (w *ForkBaseWiki) Name() string { return "ForkBase" }

// Save implements Engine.
func (w *ForkBaseWiki) Save(ctx context.Context, c *Client, page string, content []byte) error {
	ts := fmt.Sprintf("ts=%d", time.Now().UnixNano())
	_, err := w.db.Put(ctx, page, forkbase.NewBlob(content), forkbase.WithMeta(ts))
	return err
}

// load fetches one version's content, charging the client only for
// chunks missing from its cache.
func (w *ForkBaseWiki) load(c *Client, o *forkbase.FObject) ([]byte, error) {
	b, err := w.db.BlobOf(o)
	if err != nil {
		return nil, err
	}
	content, err := b.Bytes()
	if err != nil {
		return nil, err
	}
	// Charge transfer for uncached leaf chunks.
	miss := 0
	it := b.Tree().Leaves()
	for it.Next() {
		cid := it.Chunk().ID().String()
		if !c.chunks[cid] {
			c.chunks[cid] = true
			miss += it.Chunk().Size()
		}
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	w.mu.Lock()
	w.fetched += int64(miss)
	w.mu.Unlock()
	w.model.Delay(miss)
	return content, nil
}

// Load implements Engine.
func (w *ForkBaseWiki) Load(ctx context.Context, c *Client, page string) ([]byte, error) {
	o, err := w.db.Get(ctx, page)
	if errors.Is(err, forkbase.ErrKeyNotFound) {
		return nil, ErrPageNotFound
	}
	if err != nil {
		return nil, err
	}
	return w.load(c, o)
}

// LoadVersion implements Engine via the base-version chain (M15).
func (w *ForkBaseWiki) LoadVersion(ctx context.Context, c *Client, page string, back int) ([]byte, error) {
	hist, err := w.db.Track(ctx, page, back, back)
	if errors.Is(err, forkbase.ErrKeyNotFound) {
		return nil, ErrPageNotFound
	}
	if err != nil {
		return nil, err
	}
	if len(hist) == 0 {
		return nil, fmt.Errorf("wiki: page %q has no version %d back", page, back)
	}
	return w.load(c, hist[0])
}

// Edit implements Engine: the edit splices the attached Blob, so only
// the chunks covering the edited region are rewritten.
func (w *ForkBaseWiki) Edit(ctx context.Context, c *Client, e workload.WikiEdit) error {
	o, err := w.db.Get(ctx, e.Page)
	if errors.Is(err, forkbase.ErrKeyNotFound) {
		return w.Save(ctx, c, e.Page, e.Content)
	}
	if err != nil {
		return err
	}
	b, err := w.db.BlobOf(o)
	if err != nil {
		return err
	}
	del := uint64(0)
	if e.InPlace {
		del = uint64(len(e.Content))
	}
	off := uint64(e.Offset)
	if off > b.Len() {
		off = b.Len()
	}
	if off+del > b.Len() {
		del = b.Len() - off
	}
	if err := b.Splice(off, del, e.Content); err != nil {
		return err
	}
	ts := fmt.Sprintf("ts=%d", time.Now().UnixNano())
	_, err = w.db.Put(ctx, e.Page, b, forkbase.WithMeta(ts))
	return err
}

// Diff compares the latest two versions of a page by chunk, using the
// POS-Tree diff (§5.2).
func (w *ForkBaseWiki) Diff(ctx context.Context, page string) (shared, distinct int, err error) {
	hist, err := w.db.Track(ctx, page, 0, 1)
	if err != nil {
		return 0, 0, err
	}
	if len(hist) < 2 {
		return 0, 0, nil
	}
	d, err := w.db.Diff(ctx, page, hist[1].UID(), hist[0].UID())
	if err != nil {
		return 0, 0, err
	}
	return d.Unsorted.SharedLeaves, d.Unsorted.OnlyA + d.Unsorted.OnlyB, nil
}

// StorageBytes implements Engine.
func (w *ForkBaseWiki) StorageBytes() int64 { return w.db.Stats().Bytes }

// BytesFetched implements Engine.
func (w *ForkBaseWiki) BytesFetched() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fetched
}

// RedisWiki is the baseline of §5.2: each page is a list of versions,
// every version a full in-memory copy appended to the page's list.
// Commands run against raw memory — compression happens only for the
// persistence footprint (as Redis compresses its dump), so it is
// accounted lazily in StorageBytes, never on the command path.
type RedisWiki struct {
	model   FetchModel
	mu      sync.Mutex
	pages   map[string][][]byte // raw versions, oldest first
	stored  int64               // compressed bytes of versions accounted so far
	pending [][]byte            // versions not yet compressed for accounting
	fetched int64
}

// NewRedis returns the Redis-like baseline engine.
func NewRedis(model FetchModel) *RedisWiki {
	return &RedisWiki{model: model, pages: make(map[string][][]byte)}
}

// Name implements Engine.
func (r *RedisWiki) Name() string { return "Redis" }

func compress(p []byte) []byte {
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.BestSpeed)
	w.Write(p)
	w.Close()
	return buf.Bytes()
}

// Save implements Engine: append a full copy.
func (r *RedisWiki) Save(ctx context.Context, c *Client, page string, content []byte) error {
	cp := make([]byte, len(content))
	copy(cp, content)
	r.mu.Lock()
	r.pages[page] = append(r.pages[page], cp)
	r.pending = append(r.pending, cp)
	r.mu.Unlock()
	return nil
}

// raw returns a version without any wire accounting (server-side read).
func (r *RedisWiki) raw(page string, back int) ([]byte, error) {
	r.mu.Lock()
	versions := r.pages[page]
	r.mu.Unlock()
	if len(versions) == 0 {
		return nil, ErrPageNotFound
	}
	i := len(versions) - 1 - back
	if i < 0 {
		return nil, fmt.Errorf("wiki: page %q has no version %d back", page, back)
	}
	return versions[i], nil
}

func (r *RedisWiki) version(page string, back int) ([]byte, error) {
	content, err := r.raw(page, back)
	if err != nil {
		return nil, err
	}
	// The full value crosses the wire on every client read.
	r.mu.Lock()
	r.fetched += int64(len(content))
	r.mu.Unlock()
	r.model.Delay(len(content))
	return content, nil
}

// Load implements Engine.
func (r *RedisWiki) Load(ctx context.Context, c *Client, page string) ([]byte, error) {
	return r.version(page, 0)
}

// LoadVersion implements Engine.
func (r *RedisWiki) LoadVersion(ctx context.Context, c *Client, page string, back int) ([]byte, error) {
	return r.version(page, back)
}

// Edit implements Engine: server-side read-modify-write of the whole
// page (a Lua-script-style update; no wire transfer).
func (r *RedisWiki) Edit(ctx context.Context, c *Client, e workload.WikiEdit) error {
	cur, err := r.raw(e.Page, 0)
	if errors.Is(err, ErrPageNotFound) {
		return r.Save(ctx, c, e.Page, e.Content)
	}
	if err != nil {
		return err
	}
	off := e.Offset
	if off > len(cur) {
		off = len(cur)
	}
	var next []byte
	if e.InPlace {
		end := off + len(e.Content)
		if end > len(cur) {
			end = len(cur)
		}
		next = append(append(append([]byte(nil), cur[:off]...), e.Content...), cur[end:]...)
	} else {
		next = append(append(append([]byte(nil), cur[:off]...), e.Content...), cur[off:]...)
	}
	return r.Save(ctx, c, e.Page, next)
}

// StorageBytes implements Engine: the persisted (compressed) footprint
// of all retained versions, computed lazily off the command path.
func (r *RedisWiki) StorageBytes() int64 {
	r.mu.Lock()
	pending := r.pending
	r.pending = nil
	r.mu.Unlock()
	var add int64
	for _, v := range pending {
		add += int64(len(compress(v)))
	}
	r.mu.Lock()
	r.stored += add
	out := r.stored
	r.mu.Unlock()
	return out
}

// BytesFetched implements Engine.
func (r *RedisWiki) BytesFetched() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetched
}
