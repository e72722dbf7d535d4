package postree

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// Builder constructs a POS-Tree bottom-up from a stream of elements
// (Algorithm 1 in the paper). Elements must arrive pre-encoded and, for
// sorted kinds, in strictly increasing key order. The builder cuts a
// leaf whenever the rolling-hash pattern fires (extended to the element
// boundary) or the max chunk size is reached. Sealing a leaf — hashing
// it into a chunk, putting it in the store and handing its entry to the
// index levels, which grow by the cid pattern until Finish leaves a
// single root — needs nothing from the next cut (§4.3.2). So once
// sealBatch leaves are cut, one helper goroutine seals them, batch by
// batch in stream order, while the caller keeps rolling and cutting; a
// smaller build seals inline at Finish. One sealer in stream order
// makes the chunks, and puts them in the order, that sealing each leaf
// as it is cut would. Every Builder must end in Finish, which joins the
// helper.
type Builder struct {
	s       store.Store
	kind    Kind
	chunker *rollsum.Chunker
	buf     []byte
	n       uint64 // elements in the current leaf
	lastOff int    // where the current leaf's last element starts in buf
	lastKey []byte // last key seen (sorted kinds)
	batch   leafBatch
	err     error

	// The helper's side. sealing is nil until the first batch fills;
	// up belongs to the helper from then until Finish has joined it.
	sealing chan leafBatch
	sealed  sync.WaitGroup
	failed  atomic.Bool // sealErr is set
	sealErr error
	up      indexLevels
}

// sealBatch is how many cut leaves the caller hands over at a time.
const sealBatch = 16

// leaf is a cut leaf on its way to be sealed: its payload, its element
// count and, for sorted kinds, its last key, sliced from the payload.
type leaf struct {
	payload []byte
	count   uint64
	key     []byte
}

// leafBatch holds the cut leaves not yet handed over.
type leafBatch struct {
	n      int
	leaves [sealBatch]leaf
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
	_, cut := b.chunker.Scan(b.buf, encoded)
	b.lastOff = len(b.buf)
	b.buf = append(b.buf, encoded...)
	b.n++
	if cut {
		b.cut()
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
		n, cut := b.chunker.Scan(b.buf, p)
		b.buf = append(b.buf, p[:n]...)
		b.n += uint64(n)
		p = p[n:]
		if cut {
			b.cut()
		}
	}
}

// cut ends the current leaf and queues it to be sealed, unless the
// helper has failed: then the build stops with its error.
func (b *Builder) cut() {
	if b.n == 0 {
		return
	}
	if b.failed.Load() {
		b.err = b.sealErr
		return
	}
	l := leaf{payload: bytes.Clone(b.buf), count: b.n}
	if b.kind.Sorted() {
		l.key = elemKey(b.kind, l.payload[b.lastOff:])
	}
	b.batch.leaves[b.batch.n] = l
	b.batch.n++
	b.buf = b.buf[:0]
	b.n = 0
	b.chunker.Next()
	if b.batch.n < sealBatch {
		return
	}
	if b.sealing == nil {
		b.sealing = make(chan leafBatch, 1)
		b.sealed.Add(1)
		go b.sealLoop()
	}
	b.sealing <- b.batch
	b.batch.n = 0
}

// sealLoop is the helper: it seals the batches as they come and, after
// an error, drops the rest.
func (b *Builder) sealLoop() {
	defer b.sealed.Done()
	for batch := range b.sealing {
		if b.sealErr != nil {
			continue
		}
		if err := b.seal(batch.leaves[:batch.n]); err != nil {
			b.sealErr = err
			b.failed.Store(true)
		}
	}
}

// seal turns each leaf into a chunk, puts it and records its index
// entry.
func (b *Builder) seal(leaves []leaf) error {
	for _, l := range leaves {
		c := chunk.New(b.kind.leafType(), l.payload)
		if _, err := b.s.Put(c); err != nil {
			return err
		}
		if err := b.up.add(1, entry{count: l.count, id: c.ID(), key: l.key}); err != nil {
			return err
		}
	}
	return nil
}

// Finish cuts the final leaf (which, as the paper notes, may not end
// with a pattern), seals what is left — inline if the helper never
// started, else by handing it over and joining the helper — builds the
// index levels, and returns the completed tree.
func (b *Builder) Finish() (*Tree, error) {
	if b.err == nil {
		b.cut()
	}
	if b.sealing == nil {
		if b.err == nil {
			b.err = b.seal(b.batch.leaves[:b.batch.n])
		}
	} else {
		if b.err == nil {
			b.sealing <- b.batch
		}
		close(b.sealing)
		b.sealed.Wait()
		if b.sealErr != nil {
			b.err = b.sealErr
		}
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
	if need := len(nd.buf) + entrySize(e); need > cap(nd.buf) {
		// The open node is scratch, copied out at its size when sealed:
		// doubling it spares each level's first node the dozen steps by
		// which append grows a slice of kilobytes.
		buf := make([]byte, len(nd.buf), max(need, 2*cap(nd.buf)))
		copy(buf, nd.buf)
		nd.buf = buf
	}
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
