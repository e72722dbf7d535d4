package postree

import (
	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// Walk visits the tree's nodes top-down and level by level — every
// node of one level before any node of the level below — and lets fn
// decide, node by node, where it goes. fn receives a node's cid and its
// level (1 for a leaf, Height for the root). When it answers descend
// for an index node, the walk reads (and verifies) that node from the
// tree's store and visits its children; otherwise nothing under the
// node is read or visited, so a walk costs the index nodes it was told
// to open. Leaves are reported, never read. A node referenced twice is
// visited twice. Walking the empty tree visits nothing.
//
// Chunk sync is built on the pruning: a push descends only through
// the index nodes the client created, a commit only through the ones a
// committed version does not already prove (internal/chunksync).
func (t *Tree) Walk(fn func(id chunk.ID, level int) (descend bool, err error)) error {
	if t.root.IsNil() {
		return nil
	}
	level := []chunk.ID{t.root}
	for h := t.height; h >= 1 && len(level) > 0; h-- {
		var next []chunk.ID
		for _, id := range level {
			descend, err := fn(id, h)
			if err != nil {
				return err
			}
			if !descend || h == 1 {
				continue
			}
			c, err := store.GetVerified(t.s, id)
			if err != nil {
				return err
			}
			if next, err = appendChildIDs(next, c.Data()); err != nil {
				return err
			}
		}
		level = next
	}
	return nil
}
