package postree

import (
	"bytes"
	"context"
	"fmt"

	"forkbase/internal/chunk"
)

// Diff exploits the Merkle property (§4.3.1): identical subtrees have
// identical cids, so comparison only decodes leaves that are not shared
// between the two trees.
//
// For sorted trees this is exact at element granularity: an element held
// in a shared leaf is, by definition of content addressing, present in
// both trees, and unique keys guarantee it cannot also appear in an
// unshared leaf. Merging the sorted element streams of the unshared
// leaves therefore yields the precise set of added, removed and modified
// keys.

// SortedDiff is the result of comparing two sorted trees.
type SortedDiff struct {
	Added    []KV // keys only in b (Value nil for Set)
	Removed  []KV // keys only in a
	Modified []KV // keys in both with different values (Map only); Value is b's
	// SharedLeaves and TotalLeaves report how much of the comparison
	// was skipped thanks to chunk sharing.
	SharedLeaves, TotalLeaves int
}

// DiffSorted compares two sorted trees of the same kind. ctx is
// observed per unshared-leaf fetch — the loop that dominates large
// diffs — so a cancelled caller (or a disconnected remote client)
// stops paying for the comparison promptly.
func DiffSorted(ctx context.Context, a, b *Tree) (*SortedDiff, error) {
	if !a.kind.Sorted() || a.kind != b.kind {
		return nil, fmt.Errorf("postree: DiffSorted on %v vs %v", a.kind, b.kind)
	}
	la, err := a.leafEntries()
	if err != nil {
		return nil, err
	}
	lb, err := b.leafEntries()
	if err != nil {
		return nil, err
	}
	inA := make(map[chunk.ID]bool, len(la))
	for _, e := range la {
		inA[e.id] = true
	}
	inB := make(map[chunk.ID]bool, len(lb))
	for _, e := range lb {
		inB[e.id] = true
	}
	var ea, eb [][]byte
	shared := 0
	for _, e := range la {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if inB[e.id] {
			shared++
			continue
		}
		elems, err := a.leafElems(e.id)
		if err != nil {
			return nil, err
		}
		ea = append(ea, elems...)
	}
	for _, e := range lb {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if inA[e.id] {
			continue
		}
		elems, err := b.leafElems(e.id)
		if err != nil {
			return nil, err
		}
		eb = append(eb, elems...)
	}
	d := &SortedDiff{SharedLeaves: shared, TotalLeaves: len(la) + len(lb) - shared}
	i, j := 0, 0
	for i < len(ea) && j < len(eb) {
		ka, kb := elemKey(a.kind, ea[i]), elemKey(b.kind, eb[j])
		switch bytes.Compare(ka, kb) {
		case -1:
			d.Removed = append(d.Removed, kvOf(a.kind, ea[i]))
			i++
		case 1:
			d.Added = append(d.Added, kvOf(b.kind, eb[j]))
			j++
		default:
			if a.kind == KindMap && !bytes.Equal(MapElemValue(ea[i]), MapElemValue(eb[j])) {
				d.Modified = append(d.Modified, kvOf(b.kind, eb[j]))
			}
			i++
			j++
		}
	}
	for ; i < len(ea); i++ {
		d.Removed = append(d.Removed, kvOf(a.kind, ea[i]))
	}
	for ; j < len(eb); j++ {
		d.Added = append(d.Added, kvOf(b.kind, eb[j]))
	}
	return d, nil
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
// ctx between the two index walks.
func DiffUnsorted(ctx context.Context, a, b *Tree) (*UnsortedDiff, error) {
	if a.kind.Sorted() || a.kind != b.kind {
		return nil, fmt.Errorf("postree: DiffUnsorted on %v vs %v", a.kind, b.kind)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	la, err := a.leafEntries()
	if err != nil {
		return nil, err
	}
	lb, err := b.leafEntries()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sizes := func(t *Tree, e entry) uint64 {
		if t.kind == KindBlob {
			return e.count
		}
		return e.count // element count; callers interpret per kind
	}
	inA := make(map[chunk.ID]bool, len(la))
	for _, e := range la {
		inA[e.id] = true
	}
	inB := make(map[chunk.ID]bool, len(lb))
	for _, e := range lb {
		inB[e.id] = true
	}
	d := &UnsortedDiff{}
	for _, e := range la {
		if inB[e.id] {
			d.SharedLeaves++
		} else {
			d.OnlyA++
			d.BytesA += sizes(a, e)
		}
	}
	for _, e := range lb {
		if !inA[e.id] {
			d.OnlyB++
			d.BytesB += sizes(b, e)
		}
	}
	return d, nil
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
		entries, err := decodeEntries(c.Data())
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := walk(e.id); err != nil {
				return err
			}
		}
		return nil
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

// leafElems decodes the encoded elements of one leaf chunk.
func (t *Tree) leafElems(id chunk.ID) ([][]byte, error) {
	c, err := t.getChunk(id)
	if err != nil {
		return nil, err
	}
	payload := c.Data()
	var out [][]byte
	for len(payload) > 0 {
		enc, adv, err := elementAt(t.kind, payload)
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
		payload = payload[adv:]
	}
	return out, nil
}
