package postree

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// Edits are copy-on-write (§4.3.3) and cost what they touch: leaves
// without an edit are reused by cid, and inside an edited leaf only a
// window around each edit goes through the rolling hash again.
//
// Why a window is enough. The hash at a byte depends on the last
// rollsum.WindowSize bytes only, and the chunker starts afresh at
// every boundary. Take a byte of an old leaf that lies WindowSize or
// more unchanged bytes past the nearest edit (or past the point where
// the new stream entered the leaf, or re-started inside it): its
// window holds the same bytes as when the leaf was built, it was a
// checked position then and is one now, so the pattern decides as it
// did — silent everywhere but in the leaf's last element, where it
// fires again. Such bytes are copied as a run and the old leaf end is
// taken as a boundary without scanning for it. The same holds, with
// no window at all, for the bytes before the first edit of a leaf the
// new stream enters at a boundary: they replay the old chunk from its
// start. What remains for the hash is each edit plus WindowSize bytes
// after it, entered by resuming the chunker from the WindowSize bytes
// before it (rollsum.Chunker.Resume).
//
// The argument needs the old leaf to have ended on the pattern and the
// new one to stay below the forced cut, so the tree's last leaf, a
// leaf of maxLeaf bytes or more, and a leaf the edit would grow to
// maxLeaf are rolled in full, as every touched leaf once was. A
// boundary that fires inside a rolled window cuts a leaf there and
// asks for WindowSize more bytes before the next run may be copied.
// Either way the chunks are those a Builder makes of the same content.

// rollAll as a settle distance: every byte goes through the hash.
const rollAll = math.MaxInt

// onRolled, when set (tests only), receives the bytes one edit pushed
// through the rolling hash.
var onRolled func(bytes int)

// splice is one edit inside an old leaf: payload[lo:hi], holding del
// whole elements after the leaf's first idx, gives way to ins, a run
// of whole encoded elements. For a Blob the elements are bytes.
type splice struct {
	lo, hi   int
	idx, del uint64
	ins      []byte
}

// leafWriter assembles the new leaf level: reused entries, and leaves
// cut from buf where the pattern fires.
type leafWriter struct {
	s       store.Store
	kind    Kind
	chunker *rollsum.Chunker
	max     int
	buf     []byte // the open leaf's payload; the pattern fires nowhere in it
	n       uint64 // its element count
	lastOff int    // offset in buf of its last element; -1 after a copied run
	stale   bool   // buf ends in a copied run the chunker has not seen
	rolled  int    // bytes pushed through the rolling hash, Resume tails included
	entries []entry
}

func newLeafWriter(t *Tree) *leafWriter {
	return &leafWriter{s: t.s, kind: t.kind, chunker: t.leafChunker(), max: t.cfg.maxLeaf()}
}

// reserve makes room for an open leaf of size bytes, so that a leaf
// that comes out at exactly that size is handed to its chunk uncopied.
func (w *leafWriter) reserve(size int) {
	if cap(w.buf) >= size {
		return
	}
	buf := make([]byte, len(w.buf), size)
	copy(buf, w.buf)
	w.buf = buf
}

// roll pushes the head of p through the rolling hash — one element, or
// for a Blob the bytes up to the next boundary — appends it to the
// open leaf and cuts the leaf if the pattern fired. It returns the
// bytes and elements consumed.
func (w *leafWriter) roll(p []byte) (n int, elems uint64, cut bool, err error) {
	if w.stale {
		tail := w.buf
		if len(tail) > rollsum.WindowSize {
			tail = tail[len(tail)-rollsum.WindowSize:]
		}
		w.chunker.Resume(tail, len(w.buf))
		w.stale = false
		w.rolled += len(tail)
	}
	if w.kind == KindBlob {
		n, cut = w.chunker.FindBoundary(p)
		elems = uint64(n)
	} else {
		if _, n, err = elementAt(w.kind, p); err != nil {
			return 0, 0, false, err
		}
		w.chunker.Feed(p[:n])
		cut = w.chunker.Boundary()
		elems = 1
		w.lastOff = len(w.buf)
	}
	w.buf = append(w.buf, p[:n]...)
	w.n += elems
	w.rolled += n
	if cut {
		err = w.commit(nil)
	}
	return n, elems, cut, err
}

// keep carries p, count unchanged elements of an old leaf, into the
// open leaf: through the rolling hash until *settle bytes have passed
// it without a boundary, as a copied run from there on. It reports
// whether a run was copied, i.e. whether p's end was not rolled.
func (w *leafWriter) keep(p []byte, count uint64, settle *int) (copied bool, err error) {
	for len(p) > 0 && *settle > 0 {
		head := p
		if w.kind == KindBlob && *settle < len(head) {
			head = head[:*settle]
		}
		n, elems, cut, err := w.roll(head)
		if err != nil {
			return false, err
		}
		p, count = p[n:], count-elems
		switch {
		case *settle == rollAll:
		case cut:
			*settle = rollsum.WindowSize
		default:
			*settle -= n
		}
	}
	if len(p) == 0 {
		return false, nil
	}
	w.buf = append(w.buf, p...)
	w.n += count
	w.lastOff, w.stale = -1, true
	return true, nil
}

// editLeaf streams one old leaf, with sp applied, into the open leaf.
func (w *leafWriter) editLeaf(old []byte, leaf entry, last bool, sp []splice) error {
	size := len(w.buf) + len(old)
	for _, s := range sp {
		size += len(s.ins) - (s.hi - s.lo)
	}
	w.reserve(size)
	settle := 0 // entered at a boundary: the bytes before the first edit replay the old chunk
	switch {
	case last, len(old) >= w.max, size >= w.max:
		settle = rollAll
	case w.n > 0:
		settle = rollsum.WindowSize
	}
	cur, idx := 0, uint64(0)
	for _, s := range sp {
		if _, err := w.keep(old[cur:s.lo], s.idx-idx, &settle); err != nil {
			return err
		}
		for ins := s.ins; len(ins) > 0; {
			n, _, _, err := w.roll(ins)
			if err != nil {
				return err
			}
			ins = ins[n:]
		}
		if settle != rollAll {
			settle = rollsum.WindowSize
		}
		cur, idx = s.hi, s.idx+s.del
	}
	copied, err := w.keep(old[cur:], leaf.count-idx, &settle)
	if err != nil || !copied {
		return err
	}
	// The copied run ends in the old leaf's last element, where the
	// pattern fires as it did before.
	return w.commit(leaf.key)
}

// carry passes an old leaf without edits: by reference when the new
// stream has a boundary before it, through editLeaf otherwise.
func (w *leafWriter) carry(t *Tree, leaf entry, last bool) error {
	if w.n == 0 {
		w.entries = append(w.entries, leaf)
		return nil
	}
	c, err := t.getChunk(leaf.id)
	if err != nil {
		return err
	}
	return w.editLeaf(c.Data(), leaf, last, nil)
}

// commit seals the open leaf into a chunk and records its index entry.
// key is the leaf's last key where the caller knows it; nil derives it
// from the payload.
func (w *leafWriter) commit(key []byte) error {
	if w.n == 0 {
		return nil
	}
	payload := w.buf
	if len(payload) == cap(payload) {
		w.buf = nil
	} else {
		payload = append(make([]byte, 0, len(payload)), payload...)
		w.buf = w.buf[:0]
	}
	if key == nil && w.kind.Sorted() {
		if w.lastOff >= 0 {
			key = elemKey(w.kind, payload[w.lastOff:])
		} else {
			var err error
			if key, err = lastElemKey(w.kind, payload); err != nil {
				return err
			}
		}
	}
	c := chunk.New(w.kind.leafType(), payload)
	if _, err := w.s.Put(c); err != nil {
		return err
	}
	w.entries = append(w.entries, entry{key: key, count: w.n, id: c.ID()})
	w.n, w.lastOff, w.stale = 0, -1, false
	w.chunker.Next()
	return nil
}

// finish seals the last leaf (which may not end on the pattern) and
// builds the index levels over the new leaf list.
func (w *leafWriter) finish(t *Tree) (*Tree, error) {
	if err := w.commit(nil); err != nil {
		return nil, err
	}
	if onRolled != nil {
		onRolled(w.rolled)
	}
	return finishTree(t.s, t.cfg, t.kind, w.entries)
}

// KV is a key-value pair for Map batch operations.
type KV struct {
	Key, Value []byte
}

// mapOp is a normalized mutation: delete when Value is nil.
type mapOp struct {
	key, value []byte
	del        bool
}

// MapSet returns a tree with key set to value.
func (t *Tree) MapSet(key, value []byte) (*Tree, error) {
	return t.MapApply([]KV{{Key: key, Value: value}}, nil)
}

// MapDelete returns a tree with key removed (a no-op if absent).
func (t *Tree) MapDelete(key []byte) (*Tree, error) {
	return t.MapApply(nil, [][]byte{key})
}

// MapApply returns a tree with all sets and deletes applied in one pass.
// Later entries win when a key appears twice.
func (t *Tree) MapApply(sets []KV, deletes [][]byte) (*Tree, error) {
	if t.kind != KindMap {
		return nil, fmt.Errorf("postree: MapApply on %v tree", t.kind)
	}
	ops := make([]mapOp, 0, len(sets)+len(deletes))
	for _, kv := range sets {
		ops = append(ops, mapOp{key: kv.Key, value: kv.Value})
	}
	for _, k := range deletes {
		ops = append(ops, mapOp{key: k, del: true})
	}
	return t.applySortedOps(ops)
}

// SetAdd returns a tree with the elements added.
func (t *Tree) SetAdd(elems ...[]byte) (*Tree, error) {
	if t.kind != KindSet {
		return nil, fmt.Errorf("postree: SetAdd on %v tree", t.kind)
	}
	ops := make([]mapOp, len(elems))
	for i, e := range elems {
		ops[i] = mapOp{key: e}
	}
	return t.applySortedOps(ops)
}

// SetRemove returns a tree with the elements removed.
func (t *Tree) SetRemove(elems ...[]byte) (*Tree, error) {
	if t.kind != KindSet {
		return nil, fmt.Errorf("postree: SetRemove on %v tree", t.kind)
	}
	ops := make([]mapOp, len(elems))
	for i, e := range elems {
		ops[i] = mapOp{key: e, del: true}
	}
	return t.applySortedOps(ops)
}

// encodeOp encodes a surviving op as a leaf element.
func (t *Tree) encodeOp(op mapOp) []byte {
	if t.kind == KindMap {
		return EncodeMapElem(op.key, op.value)
	}
	return EncodeListElem(op.key)
}

// placeOps turns the sorted ops that fall into one leaf into splices
// of its payload, appended to sp: a set replaces the element holding
// its key or enters before the first greater one, a delete removes
// the element or, if the key is absent, does nothing.
func (t *Tree) placeOps(sp []splice, old []byte, ops []mapOp) ([]splice, error) {
	off, idx := 0, uint64(0)
	for _, op := range ops {
		match := 0 // length of the element holding op.key
		for off < len(old) {
			enc, n, err := elementAt(t.kind, old[off:])
			if err != nil {
				return nil, err
			}
			cmp := bytes.Compare(elemKey(t.kind, enc), op.key)
			if cmp == 0 {
				match = n
			}
			if cmp >= 0 {
				break
			}
			off, idx = off+n, idx+1
		}
		s := splice{lo: off, hi: off + match, idx: idx}
		if match > 0 {
			s.del = 1
		}
		switch {
		case !op.del:
			s.ins = t.encodeOp(op)
		case match == 0:
			continue
		}
		sp = append(sp, s)
		off, idx = s.hi, idx+s.del
	}
	return sp, nil
}

// applySortedOps merges mutations into a sorted tree.
func (t *Tree) applySortedOps(ops []mapOp) (*Tree, error) {
	if len(ops) == 0 {
		return t, nil
	}
	// Sort stably and keep only the last op per key.
	sort.SliceStable(ops, func(i, j int) bool {
		return bytes.Compare(ops[i].key, ops[j].key) < 0
	})
	dedup := ops[:0]
	for i, op := range ops {
		if i+1 < len(ops) && bytes.Equal(ops[i+1].key, op.key) {
			continue
		}
		dedup = append(dedup, op)
	}
	ops = dedup

	leaves, err := t.leafEntries()
	if err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		// Fresh build from the surviving inserts.
		b := NewBuilder(t.s, t.cfg, t.kind)
		for _, op := range ops {
			if !op.del {
				b.Append(t.encodeOp(op))
			}
		}
		return b.Finish()
	}

	// Each leaf takes the ops up to its split key, the last leaf all
	// that remain. A scattered batch thus costs the leaves it touches,
	// and inside them the windows around its keys.
	w := newLeafWriter(t)
	var sp []splice
	for li, leaf := range leaves {
		last := li == len(leaves)-1
		k := 0
		for k < len(ops) && (last || bytes.Compare(ops[k].key, leaf.key) <= 0) {
			k++
		}
		mine := ops[:k]
		ops = ops[k:]
		if len(mine) == 0 {
			if err := w.carry(t, leaf, last); err != nil {
				return nil, err
			}
			continue
		}
		c, err := t.getChunk(leaf.id)
		if err != nil {
			return nil, err
		}
		if sp, err = t.placeOps(sp[:0], c.Data(), mine); err != nil {
			return nil, err
		}
		if len(sp) == 0 && w.n == 0 {
			w.entries = append(w.entries, leaf)
			continue
		}
		if err := w.editLeaf(c.Data(), leaf, last, sp); err != nil {
			return nil, err
		}
	}
	return w.finish(t)
}

// ListSplice returns a List tree with del elements at position at
// replaced by ins.
func (t *Tree) ListSplice(at, del uint64, ins [][]byte) (*Tree, error) {
	if t.kind != KindList {
		return nil, fmt.Errorf("postree: ListSplice on %v tree", t.kind)
	}
	size := 0
	for _, e := range ins {
		size += 4 + len(e)
	}
	enc := make([]byte, 0, size)
	for _, e := range ins {
		enc = appendListElem(enc, e)
	}
	return t.spliceAt(at, del, enc)
}

// ListAppend returns a List tree with the elements appended.
func (t *Tree) ListAppend(elems ...[]byte) (*Tree, error) {
	return t.ListSplice(t.count, 0, elems)
}

// SpliceBytes returns a Blob tree with del bytes at offset off replaced
// by ins.
func (t *Tree) SpliceBytes(off, del uint64, ins []byte) (*Tree, error) {
	if t.kind != KindBlob {
		return nil, fmt.Errorf("postree: SpliceBytes on %v tree", t.kind)
	}
	return t.spliceAt(off, del, ins)
}

// spliceAt replaces del elements at position at of an unsorted tree by
// ins, a run of whole encoded elements (raw bytes for a Blob).
func (t *Tree) spliceAt(at, del uint64, ins []byte) (*Tree, error) {
	if at+del > t.count {
		return nil, fmt.Errorf("postree: splice [%d,%d) out of range (count %d)", at, at+del, t.count)
	}
	leaves, err := t.leafEntries()
	if err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		b := NewBuilder(t.s, t.cfg, t.kind)
		if t.kind == KindBlob {
			b.AppendBytes(ins)
			return b.Finish()
		}
		for len(ins) > 0 {
			_, n, err := elementAt(t.kind, ins)
			if err != nil {
				return nil, err
			}
			b.Append(ins[:n])
			ins = ins[n:]
		}
		return b.Finish()
	}
	w := newLeafWriter(t)
	end := at + del
	var pos uint64 // position of the leaf's first element
	for li, leaf := range leaves {
		last := li == len(leaves)-1
		next := pos + leaf.count
		// [a, b) are the positions removed from this leaf; ins enters
		// the leaf holding position at, or the last one when appended.
		a, b := at, end
		if a < pos {
			a = pos
		}
		if b > next {
			b = next
		}
		home := at >= pos && (at < next || last)
		switch {
		case !home && a >= b:
			err = w.carry(t, leaf, last)
		case !home && a == pos && b == next:
			// Removed whole.
		default:
			var c *chunk.Chunk
			if c, err = t.getChunk(leaf.id); err != nil {
				return nil, err
			}
			s := splice{idx: a - pos}
			if s.lo, err = elemOffset(t.kind, c.Data(), 0, s.idx); err != nil {
				return nil, err
			}
			s.hi = s.lo
			if a < b {
				s.del = b - a
				if s.hi, err = elemOffset(t.kind, c.Data(), s.lo, s.del); err != nil {
					return nil, err
				}
			}
			if home {
				s.ins = ins
			}
			err = w.editLeaf(c.Data(), leaf, last, []splice{s})
		}
		if err != nil {
			return nil, err
		}
		pos = next
	}
	return w.finish(t)
}

// elemOffset returns the payload offset n elements past offset off.
func elemOffset(k Kind, payload []byte, off int, n uint64) (int, error) {
	if k == KindBlob {
		return off + int(n), nil
	}
	for ; n > 0; n-- {
		_, adv, err := elementAt(k, payload[off:])
		if err != nil {
			return 0, err
		}
		off += adv
	}
	return off, nil
}
