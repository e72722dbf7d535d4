// Package merge implements version reconciliation (paper §3.3.3, §4.5.2):
// least-common-ancestor search over the object derivation graph and
// three-way merge with type-specific semantics and pluggable conflict
// resolution.
package merge

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"

	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// ErrConflict is returned when a merge has unresolved conflicts; the
// conflict list accompanies it so the application can decide how to
// resolve them (§3.3.3).
var ErrConflict = errors.New("merge: unresolved conflicts")

// Conflict describes one irreconcilable difference. For element-wise
// types (Map, Set) Key is the element key; for whole-object conflicts
// Key is nil. Each field holds the serialized value on that side; nil
// means absent/deleted.
type Conflict struct {
	Key     []byte
	Base    []byte
	A, B    []byte
	Message string
}

// Resolver turns a conflict into a resolved value. ok=false leaves the
// conflict unresolved. As in Conflict, nil means absent: a nil answer
// to a Map conflict deletes the key, and an empty, non-nil one stores
// an empty value. Applications can hook custom strategies; the
// built-ins below cover the paper's append / aggregate / choose-one.
type Resolver func(c Conflict) (resolved []byte, ok bool)

// ChooseA resolves every conflict in favor of the first (target) side.
func ChooseA(c Conflict) ([]byte, bool) { return c.A, true }

// ChooseB resolves every conflict in favor of the second (ref) side.
func ChooseB(c Conflict) ([]byte, bool) { return c.B, true }

// Append concatenates both sides' values.
func Append(c Conflict) ([]byte, bool) {
	out := make([]byte, 0, len(c.A)+len(c.B))
	out = append(out, c.A...)
	out = append(out, c.B...)
	return out, true
}

// Aggregate treats the three values as little-endian Int encodings and
// combines the deltas: base + (a-base) + (b-base). An absent base
// counts as zero.
func Aggregate(c Conflict) ([]byte, bool) {
	dec := func(b []byte) (int64, bool) {
		if b == nil {
			return 0, true
		}
		v, err := decodeInt(b)
		if err != nil {
			return 0, false
		}
		return int64(v), true
	}
	base, ok1 := dec(c.Base)
	a, ok2 := dec(c.A)
	b, ok3 := dec(c.B)
	if !ok1 || !ok2 || !ok3 {
		return nil, false
	}
	return encodeInt(base + (a - base) + (b - base)), true
}

func decodeInt(b []byte) (types.Int, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("merge: bad int")
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return types.Int(v), nil
}

func encodeInt(v int64) []byte {
	out := make([]byte, 8)
	u := uint64(v)
	for i := 0; i < 8; i++ {
		out[i] = byte(u >> (8 * i))
	}
	return out
}

// LCA finds the least common ancestor of two versions: the deepest
// FObject reachable from both (M17). It is the three-way merge base —
// "the most recent version where they start to fork" (§4.5.2). Returns
// nil when the histories are disjoint. The walk checks ctx at every
// expanded node: deep or bushy histories abort promptly when the
// caller cancels or a remote client disconnects.
func LCA(ctx context.Context, s store.Store, a, b types.UID) (*types.FObject, error) {
	if a == b {
		return types.LoadFObject(s, a)
	}
	const markA, markB = 1, 2
	marks := map[types.UID]int{}
	h := &objHeap{}
	push := func(uid types.UID, mark int) error {
		if marks[uid]&mark != 0 {
			return nil
		}
		marks[uid] |= mark
		o, err := types.LoadFObject(s, uid)
		if err != nil {
			return err
		}
		heap.Push(h, o)
		return nil
	}
	if err := push(a, markA); err != nil {
		return nil, err
	}
	if err := push(b, markB); err != nil {
		return nil, err
	}
	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := heap.Pop(h).(*types.FObject)
		m := marks[o.UID()]
		if m == markA|markB {
			return o, nil
		}
		for _, base := range o.Bases {
			if err := push(base, m); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// objHeap is a max-heap of FObjects by depth, so the LCA search always
// expands the deepest frontier node first.
type objHeap []*types.FObject

func (h objHeap) Len() int            { return len(h) }
func (h objHeap) Less(i, j int) bool  { return h[i].Depth > h[j].Depth }
func (h objHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *objHeap) Push(x interface{}) { *h = append(*h, x.(*types.FObject)) }
func (h *objHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ThreeWay merges versions a and b against their common ancestor base
// (which may be nil for disjoint histories) and returns the merged
// value. Unresolved conflicts are returned alongside ErrConflict.
func ThreeWay(ctx context.Context, s store.Store, cfg postree.Config, base, a, b *types.FObject, res Resolver) (types.Value, []Conflict, error) {
	if a.VType != b.VType {
		return nil, []Conflict{{Message: fmt.Sprintf("type mismatch: %v vs %v", a.VType, b.VType)}}, ErrConflict
	}
	switch a.VType {
	case types.TypeMap, types.TypeSet:
		return mergeKeyed(ctx, s, cfg, base, a, b, res)
	default:
		return mergeOpaque(s, cfg, base, a, b, res)
	}
}

// mergeOpaque merges values without element structure: take the side
// that changed; if both changed differently, it is a single conflict
// over the whole value.
func mergeOpaque(s store.Store, cfg postree.Config, base, a, b *types.FObject, res Resolver) (types.Value, []Conflict, error) {
	aData, bData := a.Data, b.Data
	var baseData []byte
	if base != nil {
		baseData = base.Data
	}
	pick := func(o *types.FObject) (types.Value, []Conflict, error) {
		v, err := o.Value(s, cfg)
		return v, nil, err
	}
	switch {
	case bytes.Equal(aData, bData):
		return pick(a)
	case base != nil && bytes.Equal(aData, baseData):
		return pick(b)
	case base != nil && bytes.Equal(bData, baseData):
		return pick(a)
	}
	var c Conflict
	var err error
	if c.Base, err = rawValueBytes(s, cfg, base); err != nil {
		return nil, nil, err
	}
	if c.A, err = rawValueBytes(s, cfg, a); err != nil {
		return nil, nil, err
	}
	if c.B, err = rawValueBytes(s, cfg, b); err != nil {
		return nil, nil, err
	}
	if res != nil {
		if resolved, ok := res(c); ok {
			return materialize(a.VType, resolved)
		}
	}
	return nil, []Conflict{c}, ErrConflict
}

// rawValueBytes extracts comparable/resolvable bytes for a value: the
// full content for a Blob, the inline encoding otherwise, nil for no
// value. A Blob that cannot be read is an error, not empty content.
func rawValueBytes(s store.Store, cfg postree.Config, o *types.FObject) ([]byte, error) {
	switch {
	case o == nil:
		return nil, nil
	case o.VType != types.TypeBlob:
		return o.Data, nil
	}
	v, err := o.Value(s, cfg)
	if err != nil {
		return nil, err
	}
	return v.(*types.Blob).Bytes()
}

// materialize turns resolved bytes back into a value of the right type.
func materialize(t types.Type, data []byte) (types.Value, []Conflict, error) {
	switch t {
	case types.TypeString:
		return types.String(data), nil, nil
	case types.TypeBlob:
		return types.NewBlob(data), nil, nil
	case types.TypeInt:
		v, err := decodeInt(data)
		if err != nil {
			return nil, nil, err
		}
		return v, nil, nil
	default:
		return nil, nil, fmt.Errorf("merge: cannot materialize resolved %v", t)
	}
}

// keyedChange is one side's delta from the base at one key: the side's
// element, or its removal. kv.Value is nil for a removal and for a Set
// element.
type keyedChange struct {
	kv      postree.KV
	removed bool
}

// sortedTree returns the POS-Tree of a Map or Set version.
func sortedTree(s store.Store, cfg postree.Config, o *types.FObject) (*postree.Tree, error) {
	v, err := o.Value(s, cfg)
	if err != nil {
		return nil, err
	}
	return types.TreeOf(v), nil
}

// changes lists the keys where tree differs from base, in key order.
func changes(ctx context.Context, base, tree *postree.Tree) ([]keyedChange, error) {
	var out []keyedChange
	err := postree.EachDiff(ctx, base, tree, func(op postree.DiffOp, kv postree.KV) error {
		removed := op == postree.DiffRemoved
		if removed {
			kv.Value = nil
		}
		out = append(out, keyedChange{kv: kv, removed: removed})
		return nil
	})
	return out, err
}

// mergeKeyed merges Maps and Sets key by key. Each side's changes from
// the base are walked together in key order: a key one side changed
// takes that change, a key both sides changed the same way takes it
// once, and a key they changed differently is a conflict, reported in
// key order. Against one base a Set element can only be added on both
// sides or removed on both, so a Set merge never conflicts. With no
// base (disjoint histories) both sides are changes from the empty tree.
func mergeKeyed(ctx context.Context, s store.Store, cfg postree.Config, base, a, b *types.FObject, res Resolver) (types.Value, []Conflict, error) {
	ta, err := sortedTree(s, cfg, a)
	if err != nil {
		return nil, nil, err
	}
	tb, err := sortedTree(s, cfg, b)
	if err != nil {
		return nil, nil, err
	}
	tbase := postree.Empty(ta.Store(), cfg, ta.Kind())
	if base != nil {
		if tbase, err = sortedTree(s, cfg, base); err != nil {
			return nil, nil, err
		}
	}
	ca, err := changes(ctx, tbase, ta)
	if err != nil {
		return nil, nil, err
	}
	cb, err := changes(ctx, tbase, tb)
	if err != nil {
		return nil, nil, err
	}

	var sets []postree.KV
	var deletes [][]byte
	var conflicts []Conflict
	take := func(c keyedChange) {
		if c.removed {
			deletes = append(deletes, c.kv.Key)
		} else {
			sets = append(sets, c.kv)
		}
	}
	for len(ca) > 0 || len(cb) > 0 {
		// cmp orders the two lists' next keys; a used-up list is last.
		cmp := -1
		switch {
		case len(ca) == 0:
			cmp = 1
		case len(cb) > 0:
			cmp = bytes.Compare(ca[0].kv.Key, cb[0].kv.Key)
		}
		switch {
		case cmp < 0:
			take(ca[0])
			ca = ca[1:]
		case cmp > 0:
			take(cb[0])
			cb = cb[1:]
		case ca[0].removed == cb[0].removed && bytes.Equal(ca[0].kv.Value, cb[0].kv.Value):
			take(ca[0]) // both sides made the same change
			ca, cb = ca[1:], cb[1:]
		default:
			c := Conflict{Key: bytes.Clone(ca[0].kv.Key), A: ca[0].kv.Value, B: cb[0].kv.Value}
			ca, cb = ca[1:], cb[1:]
			if c.Base, _, err = tbase.Get(c.Key); err != nil {
				return nil, nil, err
			}
			if res != nil {
				if resolved, ok := res(c); ok {
					take(keyedChange{kv: postree.KV{Key: c.Key, Value: resolved}, removed: resolved == nil})
					continue
				}
			}
			conflicts = append(conflicts, c)
		}
	}
	if len(conflicts) > 0 {
		return nil, conflicts, ErrConflict
	}
	merged, err := tbase.MapApply(sets, deletes)
	if err != nil {
		return nil, nil, err
	}
	v, _ := types.AttachValue(a.VType, merged)
	return v, nil, nil
}
