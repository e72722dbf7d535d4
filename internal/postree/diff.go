package postree

import (
	"bytes"
	"context"
	"fmt"

	"forkbase/internal/chunk"
)

// Diff exploits the Merkle property (§4.3.1): identical subtrees have
// identical cids, so a comparison descends only into subtrees whose
// cids differ.
//
// DiffSorted walks the two trees level by level, aligned by distance
// from the leaves: at each level every node present on both sides is
// dropped unread and only the rest is opened, so what reaches the leaf
// level is the leaves on the changed paths. For sorted trees this is
// exact at element granularity: an element under a dropped node is, by
// definition of content addressing, present in both trees, and unique
// keys guarantee it cannot also appear under a node that was kept.
// Merging the sorted element streams of the leaves that remain
// therefore yields the precise set of added, removed and modified keys.
// Unique keys also mean a leaf occurs once in a tree, so a leaf the two
// trees share sits at the same level on both sides and the leaves that
// remain are exactly those in one tree's leaf set and not the other's.
//
// One walk (diffSorted) serves two forms. DiffSorted collects the
// differences into lists and counts the leaves the walk skipped, which
// means reading the index nodes under every dropped node; EachDiff
// streams the differences to a callback and counts nothing, so it reads
// the nodes on the changed paths and no others.

// SortedDiff is the result of comparing two sorted trees.
type SortedDiff struct {
	Added    []KV // keys only in b (Value nil for Set)
	Removed  []KV // keys only in a
	Modified []KV // keys in both with different values (Map only); Value is b's
	// SharedLeaves and TotalLeaves report how much of the comparison
	// was skipped thanks to chunk sharing: leaves in both trees, and
	// distinct leaves in either. Counting the former walks the index
	// nodes under each dropped node down to level 2, never a leaf.
	SharedLeaves, TotalLeaves int
}

// DiffOp says how a key differs from one sorted tree to another.
type DiffOp uint8

const (
	DiffAdded    DiffOp = iota + 1 // the key is only in b
	DiffRemoved                    // the key is only in a
	DiffModified                   // a Map key in both, with different values
)

// DiffSorted compares two sorted trees of the same kind. ctx is
// observed per node fetch, so a cancelled caller (or a disconnected
// remote client) stops paying for the comparison promptly.
func DiffSorted(ctx context.Context, a, b *Tree) (*SortedDiff, error) {
	d := &SortedDiff{}
	unshared, err := diffSorted(ctx, a, b, func(entry) error {
		d.SharedLeaves++
		return nil
	}, func(op DiffOp, kv KV) error {
		switch op {
		case DiffAdded:
			d.Added = append(d.Added, kv)
		case DiffRemoved:
			d.Removed = append(d.Removed, kv)
		default:
			d.Modified = append(d.Modified, kv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.TotalLeaves = d.SharedLeaves + unshared
	return d, nil
}

// EachDiff compares two sorted trees of the same kind and calls fn once
// per key that differs, in key order: DiffAdded with b's element,
// DiffRemoved with a's, DiffModified with b's. It finds what DiffSorted
// lists but counts no shared leaf and builds no list, so it reads only
// the nodes on the changed paths. kv points into an immutable node: fn
// may keep it and must not modify it. An error from fn stops the walk
// and is returned; ctx is observed per node fetch.
func EachDiff(ctx context.Context, a, b *Tree, fn func(op DiffOp, kv KV) error) error {
	_, err := diffSorted(ctx, a, b, nil, fn)
	return err
}

// diffSorted descends a and b level by level, dropping the nodes they
// share, then merges the element streams of the leaves that remain and
// calls emit per differing key. sharedLeaf, if not nil, is called for
// every leaf under a dropped node, which costs a read of every index
// node under it. unshared is the number of leaves that remained.
func diffSorted(ctx context.Context, a, b *Tree, sharedLeaf func(entry) error, emit func(DiffOp, KV) error) (unshared int, err error) {
	if !a.kind.Sorted() || a.kind != b.kind {
		return 0, fmt.Errorf("postree: DiffSorted on %v vs %v", a.kind, b.kind)
	}
	fa, fb := a.rootFrontier(), b.rootFrontier()
	la, lb := a.height, b.height
	for lvl := max(la, lb); lvl >= 1; lvl-- {
		if la == lvl && lb == lvl {
			fa, fb, err = dropShared(fa, fb, func(e entry) error {
				if sharedLeaf == nil {
					return nil
				}
				return a.walkLeaves(ctx, e, lvl, sharedLeaf)
			})
			if err != nil {
				return 0, err
			}
		}
		if lvl == 1 {
			break
		}
		// The taller tree is opened alone until the levels meet.
		if la == lvl {
			if fa, err = a.expand(ctx, fa); err != nil {
				return 0, err
			}
			la--
		}
		if lb == lvl {
			if fb, err = b.expand(ctx, fb); err != nil {
				return 0, err
			}
			lb--
		}
	}
	unshared = len(fa) + len(fb)

	ra, rb := elemRun{ctx: ctx, t: a, leaves: fa}, elemRun{ctx: ctx, t: b, leaves: fb}
	ea, err := ra.next()
	if err != nil {
		return 0, err
	}
	eb, err := rb.next()
	if err != nil {
		return 0, err
	}
	for ea != nil || eb != nil {
		cmp := 0
		switch {
		case eb == nil:
			cmp = -1
		case ea == nil:
			cmp = 1
		default:
			cmp = bytes.Compare(elemKey(a.kind, ea), elemKey(b.kind, eb))
		}
		switch {
		case cmp < 0:
			err = emit(DiffRemoved, kvOf(a.kind, ea))
		case cmp > 0:
			err = emit(DiffAdded, kvOf(b.kind, eb))
		case a.kind == KindMap && !bytes.Equal(MapElemValue(ea), MapElemValue(eb)):
			err = emit(DiffModified, kvOf(b.kind, eb))
		}
		if err != nil {
			return 0, err
		}
		if cmp <= 0 {
			if ea, err = ra.next(); err != nil {
				return 0, err
			}
		}
		if cmp >= 0 {
			if eb, err = rb.next(); err != nil {
				return 0, err
			}
		}
	}
	return unshared, nil
}

// rootFrontier is the top of a level-by-level descent: the root as an
// entry (it has no split key), or nothing for the empty tree.
func (t *Tree) rootFrontier() []entry {
	if t.root.IsNil() {
		return nil
	}
	return []entry{{count: t.count, id: t.root}}
}

// expand replaces a frontier of index nodes by their children. It reads
// the nodes first and counts their entries, so the result is allocated
// once at its final size.
func (t *Tree) expand(ctx context.Context, frontier []entry) ([]entry, error) {
	nodes := make([][]byte, len(frontier))
	n := 0
	for i, e := range frontier {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := t.getChunk(e.id)
		if err != nil {
			return nil, err
		}
		nodes[i] = c.Data()
		for ic := (indexCursor{p: nodes[i]}); ; n++ {
			_, ok, err := ic.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	out := make([]entry, 0, n)
	for _, p := range nodes {
		for ic := (indexCursor{p: p}); !ic.done(); {
			ch, _, _ := ic.next() // the counting pass read every entry without error
			out = append(out, ch)
		}
	}
	return out, nil
}

// dropShared removes from two frontiers of one level, in place, the
// nodes present in both, and calls shared for each. Both run in key
// order and a node's cid fixes its split key, so the two are matched
// in one merge pass; a root, which has no split key, is matched by cid
// alone.
func dropShared(fa, fb []entry, shared func(entry) error) (ka, kb []entry, err error) {
	if len(fa) == 1 || len(fb) == 1 {
		for i := range fa {
			for j := range fb {
				if fa[i].id == fb[j].id {
					err := shared(fa[i])
					return append(fa[:i], fa[i+1:]...), append(fb[:j], fb[j+1:]...), err
				}
			}
		}
		return fa, fb, nil
	}
	ka, kb = fa[:0], fb[:0]
	i, j := 0, 0
	for i < len(fa) && j < len(fb) {
		cmp := bytes.Compare(fa[i].key, fb[j].key)
		if cmp == 0 && fa[i].id == fb[j].id {
			if err := shared(fa[i]); err != nil {
				return nil, nil, err
			}
			i, j = i+1, j+1
			continue
		}
		if cmp <= 0 {
			ka, i = append(ka, fa[i]), i+1
		}
		if cmp >= 0 {
			kb, j = append(kb, fb[j]), j+1
		}
	}
	return append(ka, fa[i:]...), append(kb, fb[j:]...), nil
}

// elemRun yields the encoded elements of a run of leaves in order,
// fetching each leaf when the one before is used up.
type elemRun struct {
	ctx     context.Context
	t       *Tree
	leaves  []entry
	payload []byte
}

// next returns the next element, nil at the end of the run.
func (r *elemRun) next() ([]byte, error) {
	for len(r.payload) == 0 {
		if len(r.leaves) == 0 {
			return nil, nil
		}
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		c, err := r.t.getChunk(r.leaves[0].id)
		if err != nil {
			return nil, err
		}
		r.payload, r.leaves = c.Data(), r.leaves[1:]
	}
	enc, adv, err := elementAt(r.t.kind, r.payload)
	if err != nil {
		return nil, err
	}
	r.payload = r.payload[adv:]
	return enc, nil
}

func kvOf(k Kind, enc []byte) KV {
	if k == KindMap {
		return KV{Key: MapElemKey(enc), Value: MapElemValue(enc)}
	}
	return KV{Key: SetElemBody(enc)}
}

// UnsortedDiff summarizes how two unsorted trees (Blob, List) differ in
// terms of chunk sharing; exact byte/element diffing of unshared regions
// is left to the application.
type UnsortedDiff struct {
	SharedLeaves   int
	OnlyA, OnlyB   int    // unshared leaf counts
	BytesA, BytesB uint64 // unshared payload bytes on each side
}

// DiffUnsorted compares two Blob or List trees chunk-wise, honouring
// ctx during the two index walks. A leaf may occur more than once in
// such a tree, so the comparison is between the two leaf sets, every
// occurrence counted, and both leaf levels are enumerated.
func DiffUnsorted(ctx context.Context, a, b *Tree) (*UnsortedDiff, error) {
	if a.kind.Sorted() || a.kind != b.kind {
		return nil, fmt.Errorf("postree: DiffUnsorted on %v vs %v", a.kind, b.kind)
	}
	// Occurrences of each leaf on either side; its cid fixes its count
	// (elements, or bytes for a Blob).
	type occ struct {
		inA, inB int
		count    uint64
	}
	leaves := make(map[chunk.ID]*occ)
	tally := func(t *Tree, sideB bool) error {
		for _, root := range t.rootFrontier() {
			err := t.walkLeaves(ctx, root, t.height, func(e entry) error {
				o := leaves[e.id]
				if o == nil {
					o = &occ{count: e.count}
					leaves[e.id] = o
				}
				if sideB {
					o.inB++
				} else {
					o.inA++
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	if err := tally(a, false); err != nil {
		return nil, err
	}
	if err := tally(b, true); err != nil {
		return nil, err
	}
	d := &UnsortedDiff{}
	for _, o := range leaves {
		switch {
		case o.inA > 0 && o.inB > 0:
			d.SharedLeaves += o.inA
		case o.inA > 0:
			d.OnlyA += o.inA
			d.BytesA += uint64(o.inA) * o.count
		default:
			d.OnlyB += o.inB
			d.BytesB += uint64(o.inB) * o.count
		}
	}
	return d, nil
}

// walkLeaves calls fn with the index entry of every leaf under e, a
// node of level lvl, left to right, reading index nodes only; a leaf
// yields itself. ctx is observed per node read.
func (t *Tree) walkLeaves(ctx context.Context, e entry, lvl int, fn func(entry) error) error {
	if lvl == 1 {
		return fn(e)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c, err := t.getChunk(e.id)
	if err != nil {
		return err
	}
	for ic := (indexCursor{p: c.Data()}); ; {
		ch, ok, err := ic.next()
		if err != nil || !ok {
			return err
		}
		if lvl == 2 {
			err = fn(ch)
		} else {
			err = t.walkLeaves(ctx, ch, lvl-1, fn)
		}
		if err != nil {
			return err
		}
	}
}

// Stats describes the physical shape of a tree.
type Stats struct {
	Leaves     int
	IndexNodes int
	Bytes      int64 // serialized bytes across all nodes
	Height     int
}

// TreeStats walks the tree and returns its physical statistics,
// verifying every node against its cid on the way (tamper evidence).
func (t *Tree) TreeStats() (Stats, error) {
	st := Stats{Height: t.height}
	if t.root.IsNil() {
		return st, nil
	}
	var walk func(id chunk.ID) error
	walk = func(id chunk.ID) error {
		c, err := t.getChunk(id)
		if err != nil {
			return err
		}
		st.Bytes += int64(c.Size())
		if !isIndex(c.Type()) {
			st.Leaves++
			return nil
		}
		st.IndexNodes++
		for ic := (indexCursor{p: c.Data()}); ; {
			e, ok, err := ic.next()
			if err != nil || !ok {
				return err
			}
			if err := walk(e.id); err != nil {
				return err
			}
		}
	}
	if err := walk(t.root); err != nil {
		return st, err
	}
	return st, nil
}

// Verify re-fetches and re-hashes every node of the tree, returning an
// error if any node's content does not match the cid that references it.
func (t *Tree) Verify() error {
	_, err := t.TreeStats()
	return err
}
