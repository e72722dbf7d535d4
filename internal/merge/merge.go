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
	"sort"

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
// conflict unresolved. Applications can hook custom strategies; the
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
	case types.TypeMap:
		return mergeMap(ctx, s, cfg, base, a, b, res)
	case types.TypeSet:
		return mergeSet(ctx, s, cfg, base, a, b, res)
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
	c := Conflict{Base: rawValueBytes(s, cfg, base), A: rawValueBytes(s, cfg, a), B: rawValueBytes(s, cfg, b)}
	if res != nil {
		if resolved, ok := res(c); ok {
			return materialize(a.VType, resolved)
		}
	}
	return nil, []Conflict{c}, ErrConflict
}

// rawValueBytes extracts comparable/resolvable bytes for a value: the
// full content for String/Blob, the inline encoding otherwise.
func rawValueBytes(s store.Store, cfg postree.Config, o *types.FObject) []byte {
	if o == nil {
		return nil
	}
	switch o.VType {
	case types.TypeBlob:
		v, err := o.Value(s, cfg)
		if err != nil {
			return nil
		}
		data, err := v.(*types.Blob).Bytes()
		if err != nil {
			return nil
		}
		return data
	default:
		return o.Data
	}
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

// change records one side's element-level delta from the base.
type change struct {
	value []byte // nil for delete
	del   bool
}

// mapChanges computes the key-level delta base -> o.
func mapChanges(ctx context.Context, s store.Store, cfg postree.Config, base, o *types.FObject) (map[string]change, error) {
	var baseTree, tree *postree.Tree
	v, err := o.Value(s, cfg)
	if err != nil {
		return nil, err
	}
	tree = v.(*types.Map).Tree()
	if base != nil {
		bv, err := base.Value(s, cfg)
		if err != nil {
			return nil, err
		}
		baseTree = bv.(*types.Map).Tree()
	} else {
		baseTree = postree.Empty(tree.Store(), cfg, postree.KindMap)
	}
	out := make(map[string]change)
	err = postree.EachDiff(ctx, baseTree, tree, func(op postree.DiffOp, kv postree.KV) error {
		if op == postree.DiffRemoved {
			out[string(kv.Key)] = change{del: true}
		} else {
			out[string(kv.Key)] = change{value: kv.Value}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mergeMap performs key-wise three-way merge of Map objects: changes
// from both sides are combined; a key changed on both sides to
// different results is a conflict.
func mergeMap(ctx context.Context, s store.Store, cfg postree.Config, base, a, b *types.FObject, res Resolver) (types.Value, []Conflict, error) {
	ca, err := mapChanges(ctx, s, cfg, base, a)
	if err != nil {
		return nil, nil, err
	}
	cb, err := mapChanges(ctx, s, cfg, base, b)
	if err != nil {
		return nil, nil, err
	}
	var baseMap *types.Map
	if base != nil {
		bv, err := base.Value(s, cfg)
		if err != nil {
			return nil, nil, err
		}
		baseMap = bv.(*types.Map)
	} else {
		av, err := a.Value(s, cfg)
		if err != nil {
			return nil, nil, err
		}
		// Start from an empty tree in the same store.
		empty := postree.Empty(av.(*types.Map).Tree().Store(), cfg, postree.KindMap)
		baseMap = types.AttachMap(empty)
	}

	var sets []postree.KV
	var deletes [][]byte
	var conflicts []Conflict
	apply := func(key string, ch change) {
		if ch.del {
			deletes = append(deletes, []byte(key))
		} else {
			sets = append(sets, postree.KV{Key: []byte(key), Value: ch.value})
		}
	}
	for key, cha := range ca {
		chb, both := cb[key]
		if !both {
			apply(key, cha)
			continue
		}
		if cha.del == chb.del && bytes.Equal(cha.value, chb.value) {
			apply(key, cha) // both sides agree
			continue
		}
		baseVal, _, err := baseMap.Get([]byte(key))
		if err != nil {
			return nil, nil, err
		}
		c := Conflict{Key: []byte(key), Base: baseVal, A: cha.value, B: chb.value}
		if res != nil {
			if resolved, ok := res(c); ok {
				apply(key, change{value: resolved})
				continue
			}
		}
		conflicts = append(conflicts, c)
	}
	for key, chb := range cb {
		if _, both := ca[key]; !both {
			apply(key, chb)
		}
	}
	if len(conflicts) > 0 {
		return nil, sortConflicts(conflicts), ErrConflict
	}
	merged := types.CloneMap(baseMap)
	if err := merged.Apply(sets, deletes); err != nil {
		return nil, nil, err
	}
	return merged, nil, nil
}

// sortConflicts puts conflicts found ranging over a map of changes in
// key order, so that a merge reports them the same way every time.
func sortConflicts(cs []Conflict) []Conflict {
	sort.Slice(cs, func(i, j int) bool { return bytes.Compare(cs[i].Key, cs[j].Key) < 0 })
	return cs
}

// mergeSet merges Set objects: additions and removals from both sides
// union together; add-vs-remove of the same element conflicts.
func mergeSet(ctx context.Context, s store.Store, cfg postree.Config, base, a, b *types.FObject, res Resolver) (types.Value, []Conflict, error) {
	changes := func(o *types.FObject) (map[string]change, *types.Set, error) {
		v, err := o.Value(s, cfg)
		if err != nil {
			return nil, nil, err
		}
		set := v.(*types.Set)
		var baseTree *postree.Tree
		if base != nil {
			bv, err := base.Value(s, cfg)
			if err != nil {
				return nil, nil, err
			}
			baseTree = bv.(*types.Set).Tree()
		} else {
			baseTree = postree.Empty(set.Tree().Store(), cfg, postree.KindSet)
		}
		out := make(map[string]change)
		err = postree.EachDiff(ctx, baseTree, set.Tree(), func(op postree.DiffOp, kv postree.KV) error {
			if op == postree.DiffRemoved {
				out[string(kv.Key)] = change{del: true}
			} else {
				out[string(kv.Key)] = change{value: kv.Key}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return out, set, nil
	}
	ca, _, err := changes(a)
	if err != nil {
		return nil, nil, err
	}
	cb, setB, err := changes(b)
	if err != nil {
		return nil, nil, err
	}
	_ = setB
	var add, remove [][]byte
	var conflicts []Conflict
	for key, cha := range ca {
		chb, both := cb[key]
		if both && cha.del != chb.del {
			c := Conflict{Key: []byte(key), A: cha.value, B: chb.value,
				Message: "element added on one side and removed on the other"}
			if res != nil {
				if resolved, ok := res(c); ok {
					if resolved != nil {
						add = append(add, resolved)
					}
					continue
				}
			}
			conflicts = append(conflicts, c)
			continue
		}
		if cha.del {
			remove = append(remove, []byte(key))
		} else {
			add = append(add, []byte(key))
		}
	}
	for key, chb := range cb {
		if _, both := ca[key]; both {
			continue
		}
		if chb.del {
			remove = append(remove, []byte(key))
		} else {
			add = append(add, []byte(key))
		}
	}
	if len(conflicts) > 0 {
		return nil, sortConflicts(conflicts), ErrConflict
	}
	var baseSet *types.Set
	if base != nil {
		bv, err := base.Value(s, cfg)
		if err != nil {
			return nil, nil, err
		}
		baseSet = bv.(*types.Set)
	} else {
		av, err := a.Value(s, cfg)
		if err != nil {
			return nil, nil, err
		}
		baseSet = types.AttachSet(postree.Empty(av.(*types.Set).Tree().Store(), cfg, postree.KindSet))
	}
	merged := types.CloneSet(baseSet)
	if err := merged.Add(add...); err != nil {
		return nil, nil, err
	}
	if err := merged.Remove(remove...); err != nil {
		return nil, nil, err
	}
	return merged, nil, nil
}
