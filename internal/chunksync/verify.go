package chunksync

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// Complete reports whether every chunk of tree is in the tree's store:
// each index node reads, verifies and parses, each leaf is present. It
// is the check a receiver runs before it commits a tree a peer
// uploaded chunk by chunk. A missing chunk is reported as an error
// wrapping store.ErrNotFound.
//
// ref, when non-nil, is a tree in the same store that is known to be
// complete and to stay so while the call runs: the value of a
// committed version that a branch head reaches, its root shielded from
// collection by the caller. A node of tree that is also a node of ref,
// at the same level, is then complete by that fact — the subtree under
// a cid is a function of the cid — and the check neither visits nor
// reads anything under it. The two trees are descended together, level
// by level: nodes found on both sides are dropped from both, what
// remains of tree is checked, and what remains of ref is opened to
// supply the next level's candidates. After a small edit that is the
// edited path on either side, so the check costs the delta and the
// height, not the tree.
//
// The rule is "a node of ref", never "a chunk the store holds": an
// abandoned upload or a partly compacted segment file leaves index
// chunks behind whose children are gone, and a ref that is not
// reachable from a head is exactly such a chunk. With ref nil every
// node is visited.
//
// The reference is an optimisation, so it may cost no more than the
// check it shortens: Complete opens at most as many nodes of ref as it
// opens nodes of tree, plus tree's height. Where that runs out (ref
// much taller or unrelated) the nodes below are simply checked one by
// one. A node of ref that does not read is skipped the same way.
func Complete(tree, ref *postree.Tree) error {
	v := verifier{s: tree.Store(), budget: tree.Height()}
	if ref != nil && !ref.Root().IsNil() {
		v.level = ref.Height()
		v.frontier = []chunk.ID{ref.Root()}
		v.shared = map[chunk.ID]bool{ref.Root(): false}
	}
	return tree.Walk(v.visit)
}

// verifier is Complete's state: the reference side of the co-descent.
type verifier struct {
	s store.Store
	// frontier holds the nodes of ref at level, in tree order, that no
	// node of the checked tree above this level made irrelevant; shared
	// has an entry for each of them, true once the checked tree was
	// seen to hold the same node.
	level    int
	frontier []chunk.ID
	shared   map[chunk.ID]bool
	// budget is how many more nodes of ref may be opened.
	budget int
}

// visit is the Walk callback for the checked tree. Walk reports a whole
// level before the next, so by the first visit at a level every node of
// the level above has had its chance to claim a reference node, and
// the reference can step down.
func (v *verifier) visit(id chunk.ID, level int) (bool, error) {
	for v.level > level {
		v.descend()
	}
	if v.level == level {
		if _, ok := v.shared[id]; ok {
			v.shared[id] = true
			return false, nil
		}
	}
	if level == 1 {
		if !v.s.Has(id) {
			return false, fmt.Errorf("chunksync: leaf %s: %w", id.Short(), store.ErrNotFound)
		}
		return false, nil
	}
	v.budget++ // Walk opens this node; the reference may open one too
	return true, nil
}

// descend replaces the reference frontier by the children of those of
// its nodes the checked tree does not share.
func (v *verifier) descend() {
	var next []chunk.ID
	nextShared := make(map[chunk.ID]bool)
	for _, id := range v.frontier {
		if v.shared[id] || v.budget == 0 {
			continue
		}
		c, err := store.GetVerified(v.s, id)
		if err != nil {
			continue // not usable as a reference; its subtree is checked instead
		}
		kids, err := postree.IndexChildIDs(c.Data())
		if err != nil {
			continue
		}
		v.budget--
		for _, kid := range kids {
			if _, dup := nextShared[kid]; !dup {
				nextShared[kid] = false
				next = append(next, kid)
			}
		}
	}
	v.level--
	v.frontier, v.shared = next, nextShared
}
