package postree

import (
	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// WalkChunkIDs visits every chunk id reachable from the tree's root,
// top-down. Index nodes are read (and verified) from the tree's store
// to discover their children; leaf ids are reported without reading
// the leaves — which is what lets chunk-sync enumerate a tree's full
// id set touching only the small index fringe. isLeaf tells the
// callback whether the id names a leaf (depth 1) node. Walking the
// empty tree visits nothing.
func (t *Tree) WalkChunkIDs(fn func(id chunk.ID, isLeaf bool) error) error {
	if t.root.IsNil() {
		return nil
	}
	level := []chunk.ID{t.root}
	for h := t.height; h >= 1 && len(level) > 0; h-- {
		var next []chunk.ID
		for _, id := range level {
			if err := fn(id, h == 1); err != nil {
				return err
			}
			if h == 1 {
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
