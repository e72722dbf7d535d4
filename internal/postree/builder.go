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
// element boundary) or the max chunk size is reached, and hands it to
// the index levels above, which grow by the cid pattern as the leaves
// arrive until Finish leaves a single root.
type Builder struct {
	s       store.Store
	kind    Kind
	chunker *rollsum.Chunker
	buf     []byte
	n       uint64 // elements in the current leaf
	lastKey []byte // last key seen (sorted kinds)
	up      indexLevels
	err     error
}

// NewBuilder returns a builder for a tree of the given kind.
func NewBuilder(s store.Store, cfg Config, kind Kind) *Builder {
	return &Builder{
		s:       s,
		kind:    kind,
		chunker: rollsum.NewChunker(cfg.LeafQ, cfg.maxLeaf()),
		up:      newIndexLevels(s, cfg, kind),
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
		e.key = b.lastKey
	}
	if b.err = b.up.add(1, e); b.err != nil {
		return
	}
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
	return b.up.finish()
}

// indexNode is the open node of one index level.
type indexNode struct {
	buf    []byte // its encoded entries
	n      int    // how many
	count  uint64 // elements under them
	keyOff int    // the last entry's key is buf[keyOff:keyOff+keyLen]
	keyLen int
	full   bool // the last entry ended the node
	old    bool // the last entry is an old node, taken by reference
}

// indexLevels assembles the index levels of a tree while the nodes
// below arrive, left to right: a node of level lvl (1 is a leaf) joins
// the open node of level lvl+1, which ends where the child's cid
// matches the index pattern (§4.3.3) or the node is full, and is then
// sealed into a chunk and passed up the same way. Boundaries depend on
// nothing but the child's own cid and the count since the last one, so
// a level may take an old node by reference wherever every level below
// it stands at a boundary: replaying that node's children from there
// would only rebuild it.
//
// A node that ends is kept open until its successor arrives: a level
// that turns out to hold a single node is the root, and gets no parent.
type indexLevels struct {
	s       store.Store
	cfg     Config
	kind    Kind
	pattern rollsum.IndexPattern
	max     int
	lv      []indexNode // lv[k] is the open node of level k+2
}

func newIndexLevels(s store.Store, cfg Config, kind Kind) indexLevels {
	return indexLevels{s: s, cfg: cfg, kind: kind, pattern: rollsum.NewIndexPattern(cfg.IndexR), max: cfg.maxIndex()}
}

// add appends e, a node of level lvl, to the level above it.
func (x *indexLevels) add(lvl int, e entry) error {
	k := lvl - 1
	for len(x.lv) <= k {
		x.lv = append(x.lv, indexNode{})
	}
	if x.lv[k].full {
		if err := x.seal(k); err != nil {
			return err
		}
	}
	nd := &x.lv[k]
	nd.keyOff, nd.keyLen = len(nd.buf)+4, len(e.key)
	nd.buf = appendEntry(nd.buf, e)
	nd.n++
	nd.count += e.count
	nd.full = x.pattern.Match(e.id) || nd.n >= x.max
	nd.old = false
	return nil
}

// addOld is add for an old node taken by reference. The caller has
// asked boundary(lvl) first.
func (x *indexLevels) addOld(lvl int, e entry) error {
	if err := x.add(lvl, e); err != nil {
		return err
	}
	x.lv[lvl-1].old = true
	return nil
}

// seal turns the open node of lv[k], if it has entries, into a chunk
// and adds it to the level above.
func (x *indexLevels) seal(k int) error {
	nd := &x.lv[k]
	if nd.n == 0 {
		return nil
	}
	p := append(make([]byte, 0, len(nd.buf)), nd.buf...)
	c := chunk.New(x.kind.indexType(), p)
	if _, err := x.s.Put(c); err != nil {
		return err
	}
	e := entry{count: nd.count, id: c.ID()}
	if x.kind.Sorted() {
		e.key = p[nd.keyOff : nd.keyOff+nd.keyLen]
	}
	nd.buf, nd.n, nd.count, nd.full = nd.buf[:0], 0, 0, false
	return x.add(k+2, e)
}

// boundary reports whether every index level up to lvl stands at a
// node boundary, so that an old node of level lvl may be added by
// reference. The caller has such a node in hand, which puts at least
// one more node on each of these levels: a node that has ended there
// is not the root, and is sealed to see where it leaves its parent.
func (x *indexLevels) boundary(lvl int) (bool, error) {
	for k := 0; k < lvl-1 && k < len(x.lv); k++ {
		if x.lv[k].full {
			if err := x.seal(k); err != nil {
				return false, err
			}
		}
		if x.lv[k].n > 0 {
			return false, nil
		}
	}
	return true, nil
}

// finish seals what is open, bottom up, until one node is left: the
// root. The last node of a level need not end on the pattern. A level
// that has sealed a node has a level above it, so the top one holds
// all it was ever given.
//
// A node sealed here is the root only with two entries or more — with
// one it stayed open as the root candidate of the level below. An old
// node taken by reference carries no such promise: it may have had
// siblings that the edit removed, and be a node of one child (a child
// whose cid ends its node, or the first after a full one). The tree of
// what is left starts below every such node, so the root steps down
// through them, one read each.
func (x *indexLevels) finish() (*Tree, error) {
	t := &Tree{s: x.s, cfg: x.cfg, kind: x.kind}
	for k := 0; k < len(x.lv); k++ {
		if nd := &x.lv[k]; k == len(x.lv)-1 && nd.n == 1 {
			ic := indexCursor{p: nd.buf}
			root, _, err := ic.next()
			if err != nil {
				return nil, err
			}
			t.root, t.count, t.height = root.id, root.count, k+1
			if nd.old {
				err = t.skipOnlyChildren()
			}
			return t, err
		}
		if err := x.seal(k); err != nil {
			return nil, err
		}
	}
	return t, nil // nothing was added: the empty tree
}

// skipOnlyChildren moves the root down while it is an index node with
// a single entry.
func (t *Tree) skipOnlyChildren() error {
	for t.height > 1 {
		c, err := t.getChunk(t.root)
		if err != nil {
			return err
		}
		ic := indexCursor{p: c.Data()}
		ch, ok, err := ic.next()
		if err != nil {
			return err
		}
		if !ok {
			return &CorruptNodeError{0, "index node without entries"}
		}
		if !ic.done() {
			return nil
		}
		t.root, t.height = ch.id, t.height-1
	}
	return nil
}
