package postree

import (
	"bytes"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// Builder constructs a POS-Tree bottom-up from a stream of elements
// (Algorithm 1 in the paper). Elements must arrive pre-encoded and, for
// sorted kinds, in strictly increasing key order. The builder commits a
// leaf chunk whenever the rolling-hash pattern fires (extended to the
// element boundary) or the max chunk size is reached, then assembles
// index levels using the cid pattern until a single root remains.
type Builder struct {
	s       store.Store
	cfg     Config
	kind    Kind
	chunker *rollsum.Chunker
	buf     []byte
	n       uint64 // elements in the current leaf
	lastKey []byte // last key seen (sorted kinds)
	entries []entry
	err     error
}

// NewBuilder returns a builder for a tree of the given kind.
func NewBuilder(s store.Store, cfg Config, kind Kind) *Builder {
	return &Builder{
		s:       s,
		cfg:     cfg,
		kind:    kind,
		chunker: rollsum.NewChunker(cfg.LeafQ, cfg.maxLeaf()),
	}
}

// Append adds one encoded element to the stream. For Blob trees use
// AppendBytes instead.
func (b *Builder) Append(encoded []byte) {
	if b.err != nil {
		return
	}
	if b.kind == KindBlob {
		b.err = fmt.Errorf("postree: Append on Blob tree; use AppendBytes")
		return
	}
	if b.kind.Sorted() {
		k := elemKey(b.kind, encoded)
		if b.lastKey != nil && bytes.Compare(k, b.lastKey) <= 0 {
			b.err = fmt.Errorf("postree: elements out of order: %q after %q", k, b.lastKey)
			return
		}
		b.lastKey = append(b.lastKey[:0], k...)
	}
	b.buf = append(b.buf, encoded...)
	b.n++
	b.chunker.Feed(encoded)
	if b.chunker.Boundary() {
		b.commitLeaf()
	}
}

// AppendBytes adds raw bytes to a Blob tree, splitting at pattern
// boundaries as it goes.
func (b *Builder) AppendBytes(p []byte) {
	if b.err != nil {
		return
	}
	if b.kind != KindBlob {
		b.err = fmt.Errorf("postree: AppendBytes on %v tree", b.kind)
		return
	}
	for len(p) > 0 && b.err == nil {
		n, boundary := b.chunker.FindBoundary(p)
		b.buf = append(b.buf, p[:n]...)
		b.n += uint64(n)
		p = p[n:]
		if boundary {
			b.commitLeaf()
		}
	}
}

// commitLeaf seals the current buffer into a leaf chunk and records its
// index entry.
func (b *Builder) commitLeaf() {
	if b.n == 0 {
		return
	}
	payload := make([]byte, len(b.buf))
	copy(payload, b.buf)
	c := chunk.New(b.kind.leafType(), payload)
	if _, err := b.s.Put(c); err != nil {
		b.err = err
		return
	}
	e := entry{count: b.n, id: c.ID()}
	if b.kind.Sorted() {
		e.key = append([]byte(nil), b.lastKey...)
	}
	b.entries = append(b.entries, e)
	b.buf = b.buf[:0]
	b.n = 0
	b.chunker.Next()
}

// Finish seals the final leaf (which, as the paper notes, may not end
// with a pattern), builds the index levels, and returns the completed
// tree.
func (b *Builder) Finish() (*Tree, error) {
	if b.err == nil {
		b.commitLeaf()
	}
	if b.err != nil {
		return nil, b.err
	}
	return finishTree(b.s, b.cfg, b.kind, b.entries)
}

// finishTree assembles index levels over leaf entries and returns the
// Tree handle.
func finishTree(s store.Store, cfg Config, kind Kind, leaves []entry) (*Tree, error) {
	t := &Tree{s: s, cfg: cfg, kind: kind}
	if len(leaves) == 0 {
		return t, nil
	}
	var total uint64
	for _, e := range leaves {
		total += e.count
	}
	level := leaves
	height := 1
	for len(level) > 1 {
		next, err := buildIndexLevel(s, cfg, kind, level)
		if err != nil {
			return nil, err
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.count = total
	t.height = height
	return t, nil
}

// buildIndexLevel packs child entries into index chunks, splitting where
// a child cid matches the index pattern (§4.3.3) or the node is full.
func buildIndexLevel(s store.Store, cfg Config, kind Kind, children []entry) ([]entry, error) {
	pattern := rollsum.NewIndexPattern(cfg.IndexR)
	maxEntries := cfg.maxIndex()
	var (
		out     []entry
		payload []byte
		n       int
		count   uint64
		lastKey []byte
	)
	commit := func() error {
		if n == 0 {
			return nil
		}
		p := make([]byte, len(payload))
		copy(p, payload)
		c := chunk.New(kind.indexType(), p)
		if _, err := s.Put(c); err != nil {
			return err
		}
		e := entry{count: count, id: c.ID()}
		if kind.Sorted() {
			e.key = append([]byte(nil), lastKey...)
		}
		out = append(out, e)
		payload = payload[:0]
		n = 0
		count = 0
		return nil
	}
	for _, ch := range children {
		payload = appendEntry(payload, ch)
		n++
		count += ch.count
		lastKey = ch.key
		if pattern.Match(ch.id) || n >= maxEntries {
			if err := commit(); err != nil {
				return nil, err
			}
		}
	}
	if err := commit(); err != nil {
		return nil, err
	}
	return out, nil
}
