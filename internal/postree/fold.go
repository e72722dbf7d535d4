package postree

import (
	"fmt"
	"sync"

	"forkbase/internal/chunk"
)

// memoAge is the number of folds a Memo entry survives without a fold
// hitting or creating it: at least memoAge, at most 2*memoAge. A fold
// of a branch touches the shared nodes on the paths it re-reads and the
// roots of the subtrees it skips, so what a run of branches keeps
// hitting stays, and the leaves of one full pass age out once their
// parents answer for them. What aging costs is re-reading a forgotten
// leaf that a later branch's new index node shares: on a 100 000-row
// table whose branches each rewrite a 1 000-row slice, a fold read a
// median 117 nodes at memoAge 8 and 62 at 32, of which 42 are new.
const memoAge = 32

// A Memo sums a value over the elements of trees of one kind and
// remembers the subtotal of every subtree it summed, keyed by the
// subtree's cid. Folding a tree that shares subtrees with trees the
// memo folded before reads only the nodes it does not share: the walk
// stops at the first remembered node on each path. A subtotal is a
// pure function of its cid — chunks are immutable and a cid names its
// content — so no write, merge or collection can make an entry wrong,
// and nothing invalidates one; a collected chunk's entry just stops
// being asked for. Entries age out instead: the memo keeps only what
// its last 2*memoAge folds hit or created, which is never more than
// the nodes of the trees those folds walked. A Memo is safe for
// concurrent use; value runs outside its lock.
type Memo struct {
	kind  Kind
	value func(elem []byte) (int64, error)

	mu    sync.Mutex
	cur   map[chunk.ID]int64 // hit or created since the last rotation
	old   map[chunk.ID]int64 // hit or created in the age before; dropped at the next rotation
	folds int
}

// NewMemo returns an empty memo that sums value over the encoded
// elements (as ElemIter yields them) of trees of the given kind, which
// must not be KindBlob.
func NewMemo(kind Kind, value func(elem []byte) (int64, error)) *Memo {
	return &Memo{kind: kind, value: value, cur: make(map[chunk.ID]int64)}
}

// Fold returns the sum of the memo's value over every element of t.
// Every node it reads goes through the tree's verified read, and a
// subtotal is recorded only once every read and value under it has
// succeeded, so a failed fold leaves nothing behind that a later one
// could trust.
func (m *Memo) Fold(t *Tree) (int64, error) {
	if t.kind != m.kind || t.kind == KindBlob {
		return 0, fmt.Errorf("postree: Fold of a %v tree with a memo for %v trees", t.kind, m.kind)
	}
	if t.root.IsNil() {
		return 0, nil
	}
	m.mu.Lock()
	if m.folds++; m.folds%memoAge == 0 {
		m.old, m.cur = m.cur, make(map[chunk.ID]int64)
	}
	sum, ok := m.lookup(t.root)
	m.mu.Unlock()
	if ok {
		return sum, nil
	}
	f := folder{m: m, t: t}
	sum, err := f.sum(t.root)
	if err != nil {
		return 0, err
	}
	m.record(t.root, sum)
	return sum, nil
}

// lookup returns the subtotal of the subtree under id, moving a hit on
// an entry of the previous age into the current one. mu is held.
func (m *Memo) lookup(id chunk.ID) (int64, bool) {
	if v, ok := m.cur[id]; ok {
		return v, true
	}
	v, ok := m.old[id]
	if ok {
		delete(m.old, id)
		m.cur[id] = v
	}
	return v, ok
}

// record remembers the subtotal of the subtree under id.
func (m *Memo) record(id chunk.ID, v int64) {
	m.mu.Lock()
	delete(m.old, id)
	m.cur[id] = v
	m.mu.Unlock()
}

// folder is one Fold's walk. stack holds, for every index node on the
// current path, the children the memo lacked; each node's stretch is
// truncated away once its children are summed, so a walk allocates
// nothing per node once the stack has grown to its deepest need.
type folder struct {
	m     *Memo
	t     *Tree
	stack []chunk.ID
}

// sum reads the node id, which the memo lacked, and returns the sum
// over its subtree.
func (f *folder) sum(id chunk.ID) (int64, error) {
	c, err := f.t.getChunk(id)
	if err != nil {
		return 0, err
	}
	if !isIndex(c.Type()) {
		return f.leaf(c.Data())
	}
	start := len(f.stack)
	total, err := f.split(c.Data())
	if err != nil {
		return 0, err
	}
	for i, end := start, len(f.stack); i < end; i++ {
		child := f.stack[i] // the recursion may grow, and so move, the stack
		v, err := f.sum(child)
		if err != nil {
			return 0, err
		}
		f.m.record(child, v)
		total += v
	}
	f.stack = f.stack[:start]
	return total, nil
}

// split sums the subtotals the memo holds for the children of an index
// node and pushes the children it lacks onto the stack.
func (f *folder) split(payload []byte) (int64, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	var hits int64
	ic := indexCursor{p: payload}
	for n := 0; ; n++ {
		e, ok, err := ic.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			if n == 0 {
				return 0, &CorruptNodeError{0, "index node without entries"}
			}
			return hits, nil
		}
		if v, ok := f.m.lookup(e.id); ok {
			hits += v
		} else {
			f.stack = append(f.stack, e.id)
		}
	}
}

// leaf sums the value over the elements of a leaf payload.
func (f *folder) leaf(payload []byte) (int64, error) {
	var total int64
	for len(payload) > 0 {
		enc, adv, err := elementAt(f.t.kind, payload)
		if err != nil {
			return 0, err
		}
		v, err := f.m.value(enc)
		if err != nil {
			return 0, err
		}
		total += v
		payload = payload[adv:]
	}
	return total, nil
}
