package postree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// Edits are copy-on-write (§4.3.3) and cost what they touch. An edit
// walks down from the root, routing its operations by split key (Map,
// Set) or by position (List, Blob), and writes the new tree through one
// writer per level: the leafWriter below and the indexLevels above it.
// An old subtree without an edit is passed up by reference, unread,
// iff every writer at and below its level stands at a node boundary;
// otherwise it is opened and its children are offered the same way
// (offer). Index nodes off the edited paths are thus neither fetched,
// re-encoded, re-hashed nor put again, and a level falls back in step
// with the old tree at the first old node end that is also a new one.
// The last node of a level may be unterminated; that stays legal
// because only an edit under it can put anything after it, and such an
// edit opens it. An edit that removes everything beside one old subtree
// leaves that node alone on top; where it is a node of a single child
// the root steps down through it (indexLevels.finish), because a
// Builder never roots a tree there. Inside an edited leaf only a window
// around each edit goes through the rolling hash again.
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
// after it; the window in front of an edit is the open leaf's last
// WindowSize bytes, which rollsum.Chunker.Scan hashes again when the
// leaf grew by a copied run.
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

// leafWriter assembles the new leaf level — old leaves by reference,
// and leaves cut from buf where the pattern fires — and hands each
// leaf to the index levels above.
type leafWriter struct {
	s       store.Store
	kind    Kind
	chunker *rollsum.Chunker
	max     int
	buf     []byte // the open leaf's payload; the pattern fires nowhere in it
	n       uint64 // its element count
	// lastOff is the offset in buf of its last rolled element (Blob:
	// run), -1 after a copied run or a cut. With a non-empty buf,
	// lastOff < 0 holds exactly when buf ends in a copied run, so that
	// len(buf) differs from the size the chunker's hash covers: the
	// condition under which Scan re-hashes buf's last WindowSize bytes.
	lastOff int
	rolled  int // bytes pushed through the rolling hash, re-hashed windows included
	up      indexLevels
	sp      []splice // scratch: the splices of the leaf being edited
	elems   []byte   // scratch: the elements those splices insert
}

func newLeafWriter(t *Tree) *leafWriter {
	return &leafWriter{s: t.s, kind: t.kind, chunker: t.leafChunker(), max: t.cfg.maxLeaf(),
		up: newIndexLevels(t.s, t.cfg, t.kind)}
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
	if w.lastOff < 0 {
		// Scan re-hashes the leaf's last WindowSize bytes (see lastOff).
		w.rolled += min(len(w.buf), rollsum.WindowSize)
	}
	if w.kind == KindBlob {
		n, cut = w.chunker.Scan(w.buf, p)
		elems = uint64(n)
	} else {
		if _, n, err = elementAt(w.kind, p); err != nil {
			return 0, 0, false, err
		}
		_, cut = w.chunker.Scan(w.buf, p[:n])
		elems = 1
	}
	w.lastOff = len(w.buf)
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
	w.lastOff = -1
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

// offer passes on e, an old subtree of level lvl without edits: by
// reference when every writer at and below lvl stands at a boundary,
// else opened — a leaf through editLeaf, an index node child by child.
// last marks the tree's rightmost path.
func (w *leafWriter) offer(t *Tree, e entry, lvl int, last bool) error {
	if w.n == 0 {
		ok, err := w.up.boundary(lvl)
		if err != nil {
			return err
		}
		if ok {
			return w.up.addOld(lvl, e)
		}
	}
	c, err := t.getChunk(e.id)
	if err != nil {
		return err
	}
	if lvl == 1 {
		return w.editLeaf(c.Data(), e, last, nil)
	}
	for ic := (indexCursor{p: c.Data()}); ; {
		ch, ok, err := ic.next()
		if err != nil || !ok {
			return err
		}
		if err := w.offer(t, ch, lvl-1, last && ic.done()); err != nil {
			return err
		}
	}
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
	e := entry{key: key, count: w.n, id: c.ID()}
	w.n, w.lastOff = 0, -1
	w.chunker.Next()
	return w.up.add(1, e)
}

// finish seals the last leaf (which may not end on the pattern) and
// the open node of every level above it.
func (w *leafWriter) finish() (*Tree, error) {
	if err := w.commit(nil); err != nil {
		return nil, err
	}
	if onRolled != nil {
		onRolled(w.rolled)
	}
	return w.up.finish()
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
// Later entries win when a key appears twice. It edits Maps and Sets
// alike: on a Set tree a set adds its key and ignores its value.
func (t *Tree) MapApply(sets []KV, deletes [][]byte) (*Tree, error) {
	if !t.kind.Sorted() {
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
	sets := make([]KV, len(elems))
	for i, e := range elems {
		sets[i].Key = e
	}
	return t.MapApply(sets, nil)
}

// SetRemove returns a tree with the elements removed.
func (t *Tree) SetRemove(elems ...[]byte) (*Tree, error) {
	if t.kind != KindSet {
		return nil, fmt.Errorf("postree: SetRemove on %v tree", t.kind)
	}
	return t.MapApply(nil, elems)
}

// opSize is the size of op's leaf element.
func (t *Tree) opSize(op mapOp) int {
	if t.kind == KindMap {
		return 8 + len(op.key) + len(op.value)
	}
	return 4 + len(op.key)
}

// appendOp appends op's leaf element to dst.
func (t *Tree) appendOp(dst []byte, op mapOp) []byte {
	if t.kind == KindMap {
		return AppendMapElem(dst, op.key, op.value)
	}
	return appendListElem(dst, op.key)
}

// placeOps turns the sorted ops that fall into one leaf into splices
// of its payload, appended to w.sp: a set replaces the element holding
// its key or enters before the first greater one, a delete removes
// the element or, if the key is absent, does nothing. The elements the
// sets insert are encoded into w.elems, sized for all of them first, so
// a leaf's inserts cost at most one allocation and usually none.
func (w *leafWriter) placeOps(t *Tree, old []byte, ops []mapOp) error {
	size := 0
	for _, op := range ops {
		if !op.del {
			size += t.opSize(op)
		}
	}
	if cap(w.elems) < size {
		w.elems = make([]byte, 0, size)
	}
	w.sp, w.elems = w.sp[:0], w.elems[:0]
	off, idx := 0, uint64(0)
	for _, op := range ops {
		match := 0 // length of the element holding op.key
		for off < len(old) {
			enc, n, err := elementAt(t.kind, old[off:])
			if err != nil {
				return err
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
			at := len(w.elems)
			w.elems = t.appendOp(w.elems, op)
			s.ins = w.elems[at:]
		case match == 0:
			continue
		}
		w.sp = append(w.sp, s)
		off, idx = s.hi, idx+s.del
	}
	return nil
}

// applySortedOps merges mutations into a sorted tree.
func (t *Tree) applySortedOps(ops []mapOp) (*Tree, error) {
	if len(ops) == 0 {
		return t, nil
	}
	// Sort stably, unless the ops already are, and keep only the last
	// op per key. MapApply's sets and deletes are each usually sorted.
	byKey := func(a, b mapOp) int { return bytes.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(ops, byKey) {
		slices.SortStableFunc(ops, byKey)
	}
	dedup := ops[:0]
	for i, op := range ops {
		if i+1 < len(ops) && bytes.Equal(ops[i+1].key, op.key) {
			continue
		}
		dedup = append(dedup, op)
	}
	ops = dedup

	if t.root.IsNil() {
		// Fresh build from the surviving inserts. The Builder copies
		// each element, so one scratch encodes them all in turn.
		b := NewBuilder(t.s, t.cfg, t.kind)
		var elem []byte
		for _, op := range ops {
			if !op.del {
				elem = t.appendOp(elem[:0], op)
				b.Append(elem)
			}
		}
		return b.Finish()
	}
	w := newLeafWriter(t)
	if err := w.applyOps(t, entry{count: t.count, id: t.root}, t.height, true, ops); err != nil {
		return nil, err
	}
	return w.finish()
}

// applyOps writes the old subtree e of level lvl with ops, sorted and
// all falling under it, applied. Each child takes the ops up to its
// split key, the rightmost one (last) all that remain: a scattered
// batch thus costs the paths to the leaves it touches, and inside them
// the windows around its keys.
func (w *leafWriter) applyOps(t *Tree, e entry, lvl int, last bool, ops []mapOp) error {
	if len(ops) == 0 {
		return w.offer(t, e, lvl, last)
	}
	c, err := t.getChunk(e.id)
	if err != nil {
		return err
	}
	if lvl == 1 {
		if err := w.placeOps(t, c.Data(), ops); err != nil {
			return err
		}
		if len(w.sp) == 0 && w.n == 0 {
			return w.up.add(1, e)
		}
		return w.editLeaf(c.Data(), e, last, w.sp)
	}
	for ic := (indexCursor{p: c.Data()}); ; {
		ch, ok, err := ic.next()
		if err != nil {
			return err
		}
		if !ok {
			if len(ops) > 0 {
				return &CorruptNodeError{ic.off, "split keys end below the key the parent gives"}
			}
			return nil
		}
		chLast := last && ic.done()
		k := len(ops)
		if !chLast {
			k = sort.Search(len(ops), func(i int) bool { return bytes.Compare(ops[i].key, ch.key) > 0 })
		}
		if err := w.applyOps(t, ch, lvl-1, chLast, ops[:k]); err != nil {
			return err
		}
		ops = ops[k:]
	}
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
	if t.root.IsNil() {
		b := NewBuilder(t.s, t.cfg, t.kind)
		if t.kind == KindBlob {
			b.AppendBytes(ins)
			return b.Finish()
		}
		for len(ins) > 0 {
			_, n, err := elementAt(t.kind, ins)
			if err != nil {
				b.err = err // Finish joins what the build started
				break
			}
			b.Append(ins[:n])
			ins = ins[n:]
		}
		return b.Finish()
	}
	w := newLeafWriter(t)
	if err := w.spliceAt(t, entry{count: t.count, id: t.root}, t.height, true, 0, at, at+del, ins); err != nil {
		return nil, err
	}
	return w.finish()
}

// spliceAt writes the old subtree e of level lvl, whose first element
// has position pos, with positions [at, end) removed and ins entered
// at at. A subtree the splice misses is offered as it is, one it
// swallows is dropped unread, and ins goes to the leaf holding
// position at — the last leaf when appended.
func (w *leafWriter) spliceAt(t *Tree, e entry, lvl int, last bool, pos, at, end uint64, ins []byte) error {
	next := pos + e.count
	a, b := max(at, pos), min(end, next) // the positions removed from e
	home := at >= pos && (at < next || last)
	switch {
	case !home && a >= b:
		return w.offer(t, e, lvl, last)
	case !home && a == pos && b == next:
		return nil
	}
	c, err := t.getChunk(e.id)
	if err != nil {
		return err
	}
	if lvl > 1 {
		for ic := (indexCursor{p: c.Data()}); ; {
			ch, ok, err := ic.next()
			if err != nil || !ok {
				return err
			}
			if err := w.spliceAt(t, ch, lvl-1, last && ic.done(), pos, at, end, ins); err != nil {
				return err
			}
			pos += ch.count
		}
	}
	s := splice{idx: a - pos}
	if s.lo, err = elemOffset(t.kind, c.Data(), 0, s.idx); err != nil {
		return err
	}
	s.hi = s.lo
	if a < b {
		s.del = b - a
		if s.hi, err = elemOffset(t.kind, c.Data(), s.lo, s.del); err != nil {
			return err
		}
	}
	if home {
		s.ins = ins
	}
	w.sp = append(w.sp[:0], s)
	return w.editLeaf(c.Data(), e, last, w.sp)
}

// elemOffset returns the payload offset n elements past offset off.
func elemOffset(k Kind, payload []byte, off int, n uint64) (int, error) {
	if k == KindBlob {
		if n > uint64(len(payload)-off) {
			return 0, &CorruptNodeError{0, fmt.Sprintf("leaf of %d bytes is shorter than its index entry counts", len(payload))}
		}
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
