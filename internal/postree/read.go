package postree

import (
	"bytes"
	"errors"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// Get looks up the element with the given key in a sorted tree. For Map
// it returns the value; for Set it returns the element body. ok is false
// when the key is absent.
func (t *Tree) Get(key []byte) (val []byte, ok bool, err error) {
	if !t.kind.Sorted() {
		return nil, false, fmt.Errorf("postree: Get on unsorted %v tree", t.kind)
	}
	if t.root.IsNil() {
		return nil, false, nil
	}
	id := t.root
	for lvl := t.height; lvl > 1; lvl-- {
		c, err := t.getChunk(id)
		if err != nil {
			return nil, false, err
		}
		// First subtree whose max key is >= target.
		ic := indexCursor{p: c.Data()}
		e, ok, err := ic.seekKey(key)
		if err != nil || !ok {
			return nil, false, err
		}
		id = e.id
	}
	c, err := t.getChunk(id)
	if err != nil {
		return nil, false, err
	}
	payload := c.Data()
	for len(payload) > 0 {
		enc, adv, err := elementAt(t.kind, payload)
		if err != nil {
			return nil, false, err
		}
		switch bytes.Compare(elemKey(t.kind, enc), key) {
		case 0:
			if t.kind == KindMap {
				return MapElemValue(enc), true, nil
			}
			return SetElemBody(enc), true, nil
		case 1:
			return nil, false, nil
		}
		payload = payload[adv:]
	}
	return nil, false, nil
}

// Has reports whether key is present in a sorted tree.
func (t *Tree) Has(key []byte) (bool, error) {
	_, ok, err := t.Get(key)
	return ok, err
}

// GetAt returns the encoded element at position i (0-based). For Blob
// trees use ReadAt.
func (t *Tree) GetAt(i uint64) ([]byte, error) {
	if t.kind == KindBlob {
		return nil, fmt.Errorf("postree: GetAt on Blob tree; use ReadAt")
	}
	if i >= t.count {
		return nil, fmt.Errorf("postree: index %d out of range (count %d)", i, t.count)
	}
	id := t.root
	for lvl := t.height; lvl > 1; lvl-- {
		c, err := t.getChunk(id)
		if err != nil {
			return nil, err
		}
		ic := indexCursor{p: c.Data()}
		e, before, err := ic.seekPos(i)
		if err != nil {
			return nil, err
		}
		id, i = e.id, i-before
	}
	c, err := t.getChunk(id)
	if err != nil {
		return nil, err
	}
	payload := c.Data()
	for ; ; i-- {
		if len(payload) == 0 {
			return nil, &CorruptNodeError{0, fmt.Sprintf("leaf %s ends %d elements before the position its parent routed here", id.Short(), i+1)}
		}
		enc, adv, err := elementAt(t.kind, payload)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			return enc, nil
		}
		payload = payload[adv:]
	}
}

// ReadAt reads len(p) bytes of a Blob tree starting at offset off,
// fetching only the leaves that cover the range. It returns the number
// of bytes read, which is short only when the range passes the end.
func (t *Tree) ReadAt(p []byte, off uint64) (int, error) {
	if t.kind != KindBlob {
		return 0, fmt.Errorf("postree: ReadAt on %v tree", t.kind)
	}
	read := 0
	for read < len(p) && off+uint64(read) < t.count {
		pos := off + uint64(read)
		payload, start, err := t.blobLeafAt(pos)
		if err != nil {
			return read, err
		}
		read += copy(p[read:], payload[pos-start:])
	}
	return read, nil
}

// blobLeafAt returns the payload of the leaf covering byte position pos
// and the global offset of the leaf's first byte.
func (t *Tree) blobLeafAt(pos uint64) ([]byte, uint64, error) {
	id := t.root
	var start uint64
	i := pos
	for lvl := t.height; lvl > 1; lvl-- {
		c, err := t.getChunk(id)
		if err != nil {
			return nil, 0, err
		}
		ic := indexCursor{p: c.Data()}
		e, before, err := ic.seekPos(i)
		if err != nil {
			return nil, 0, err
		}
		id, i, start = e.id, i-before, start+before
	}
	c, err := t.getChunk(id)
	if err != nil {
		return nil, 0, err
	}
	if i >= uint64(len(c.Data())) {
		return nil, 0, &CorruptNodeError{0, fmt.Sprintf("leaf %s holds %d bytes, its parent routed byte %d here", id.Short(), len(c.Data()), i)}
	}
	return c.Data(), start, nil
}

// Bytes materializes the full content of a Blob tree. The leaf
// payloads are immutable chunk data, so they are gathered by reference
// and copied once into a result that is never zeroed first.
func (t *Tree) Bytes() ([]byte, error) {
	if t.kind != KindBlob {
		return nil, fmt.Errorf("postree: Bytes on %v tree", t.kind)
	}
	var parts [][]byte
	it := t.Leaves()
	for it.Next() {
		parts = append(parts, it.Payload())
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	return bytes.Join(parts, nil), nil
}

// A Filler is a store that can fetch the chunks it lacks from
// elsewhere — a client's chunk store in front of a server. A tree
// attached to one reads a missing node as one fetch, which is what a
// point read wants; iteration instead asks FillSubtrees, so walking a
// missing region costs a round trip per level and not one per leaf.
type Filler interface {
	// FillSubtrees completes, in the store, the subtrees under roots,
	// all at level (1 for a leaf), fetching only the chunks it lacks.
	FillSubtrees(roots []chunk.ID, level int) error
	// GetLocal reads a chunk the store holds, fetching nothing: a
	// chunk it lacks is store.ErrNotFound.
	GetLocal(id chunk.ID) (*chunk.Chunk, error)
}

// LeafIter walks the leaf chunks of a tree left to right, holding one
// cursor per index level on the path to the current leaf. The walk is
// type-driven: index chunks are opened, leaf chunks are yielded, so the
// depth is needed only to tell a Filler where the nodes it fills sit.
type LeafIter struct {
	t     *Tree
	fill  Filler // the tree's store, when it is one
	stack []indexCursor
	root  bool // the root has not been visited yet
	cur   *chunk.Chunk
	err   error
}

// Leaves returns an iterator over the tree's leaf chunks.
func (t *Tree) Leaves() *LeafIter {
	fill, _ := t.s.(Filler)
	return &LeafIter{t: t, fill: fill, root: !t.root.IsNil(), stack: make([]indexCursor, 0, t.height)}
}

// open reads the node id. Over a Filler it reads the store's own copy,
// one probe when the node is held, and fills on a miss.
func (it *LeafIter) open(id chunk.ID) (*chunk.Chunk, error) {
	if it.fill == nil {
		return it.t.getChunk(id)
	}
	c, err := it.fill.GetLocal(id)
	switch {
	case errors.Is(err, store.ErrNotFound):
		if err := it.fillFrom(id); err != nil {
			return nil, err
		}
		return it.t.getChunk(id)
	case err != nil:
		return nil, err
	}
	if err := c.Verify(id); err != nil {
		return nil, fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	return c, nil
}

// fillFrom runs on a Filler's miss: the node id the walk is about to
// open is not in the store, so the node, and the siblings the deepest
// cursor will yield after it, are filled in one go.
func (it *LeafIter) fillFrom(id chunk.ID) error {
	roots := []chunk.ID{id}
	if n := len(it.stack); n > 0 {
		ahead := it.stack[n-1] // a copy: the walk's own cursor stays put
		var err error
		if roots, err = ahead.appendRest(roots); err != nil {
			return err
		}
	}
	return it.fill.FillSubtrees(roots, it.t.height-len(it.stack))
}

// Next advances to the next leaf chunk.
func (it *LeafIter) Next() bool {
	if it.err != nil {
		return false
	}
	id := it.t.root
	if !it.root {
		// The next entry of the deepest index node that has one.
		for {
			if len(it.stack) == 0 {
				return false
			}
			e, ok, err := it.stack[len(it.stack)-1].next()
			if err != nil {
				it.err = err
				return false
			}
			if ok {
				id = e.id
				break
			}
			it.stack = it.stack[:len(it.stack)-1]
		}
	}
	it.root = false
	for {
		c, err := it.open(id)
		if err != nil {
			it.err = err
			return false
		}
		if !isIndex(c.Type()) {
			it.cur = c
			return true
		}
		it.stack = append(it.stack, indexCursor{p: c.Data()})
		e, ok, err := it.stack[len(it.stack)-1].next()
		if err != nil || !ok {
			if err == nil {
				err = &CorruptNodeError{0, "index node without entries"}
			}
			it.err = err
			return false
		}
		id = e.id
	}
}

// Payload returns the current leaf chunk's payload.
func (it *LeafIter) Payload() []byte { return it.cur.Data() }

// Chunk returns the current leaf chunk.
func (it *LeafIter) Chunk() *chunk.Chunk { return it.cur }

// Err returns the first error encountered while iterating.
func (it *LeafIter) Err() error { return it.err }

// ElemIter yields the encoded elements of a non-Blob tree in order.
type ElemIter struct {
	t       *Tree
	leaves  *LeafIter
	payload []byte
	cur     []byte
	err     error
}

// Elems returns an iterator over encoded elements.
func (t *Tree) Elems() *ElemIter {
	return &ElemIter{t: t, leaves: t.Leaves()}
}

// Next advances to the next element.
func (it *ElemIter) Next() bool {
	if it.err != nil {
		return false
	}
	for len(it.payload) == 0 {
		if !it.leaves.Next() {
			it.err = it.leaves.Err()
			return false
		}
		it.payload = it.leaves.Payload()
	}
	enc, adv, err := elementAt(it.t.kind, it.payload)
	if err != nil {
		it.err = err
		return false
	}
	it.cur = enc
	it.payload = it.payload[adv:]
	return true
}

// Elem returns the current encoded element.
func (it *ElemIter) Elem() []byte { return it.cur }

// Err returns the first error encountered while iterating.
func (it *ElemIter) Err() error { return it.err }

// lastElemKey returns the key of the last element in a sorted leaf
// payload.
func lastElemKey(k Kind, payload []byte) ([]byte, error) {
	var last []byte
	for len(payload) > 0 {
		enc, adv, err := elementAt(k, payload)
		if err != nil {
			return nil, err
		}
		last = elemKey(k, enc)
		payload = payload[adv:]
	}
	return append([]byte(nil), last...), nil
}
