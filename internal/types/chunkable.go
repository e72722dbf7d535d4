package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// Chunkable handles exist in one of two modes. A fresh handle (from
// NewBlob etc.) stages its content in memory until it is first persisted
// by a Put. An attached handle (from a Get) wraps a POS-Tree; reads
// fetch only the relevant chunks on demand, and edits produce new trees
// via copy-on-write. In both modes edits are local until committed with
// Put, matching the client-buffering behaviour of Figure 4.

// chunkRef is the meta-chunk data for a chunkable value: root cid,
// element count, tree height.
func encodeChunkRef(t *postree.Tree) []byte {
	out := make([]byte, chunk.IDSize+8+1)
	root := t.Root()
	copy(out, root[:])
	binary.LittleEndian.PutUint64(out[chunk.IDSize:], t.Count())
	out[chunk.IDSize+8] = byte(t.Height())
	return out
}

// chunkRefRoot extracts the POS-Tree root cid of an encoded chunkable
// reference. Shared by the value decode path (decodeChunkRef) and the
// GC marker (ChunkRefs), so the two cannot diverge on the layout.
func chunkRefRoot(data []byte) (chunk.ID, error) {
	if len(data) != chunk.IDSize+8+1 {
		return chunk.ID{}, fmt.Errorf("types: bad chunkable reference (%d bytes)", len(data))
	}
	var root chunk.ID
	copy(root[:], data)
	return root, nil
}

func decodeChunkRef(s store.Store, cfg postree.Config, kind postree.Kind, data []byte) (*postree.Tree, error) {
	root, err := chunkRefRoot(data)
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(data[chunk.IDSize:])
	height := int(data[chunk.IDSize+8])
	return postree.Attach(s, cfg, kind, root, count, height), nil
}

// Blob is a chunkable byte sequence.
type Blob struct {
	tree   *postree.Tree // nil while staged
	staged []byte
}

// NewBlob returns a fresh Blob staging the given content.
func NewBlob(data []byte) *Blob {
	return &Blob{staged: append([]byte(nil), data...)}
}

// Type implements Value.
func (*Blob) Type() Type { return TypeBlob }

func (b *Blob) persist(s store.Store, cfg postree.Config) ([]byte, error) {
	if b.tree == nil {
		builder := postree.NewBuilder(s, cfg, postree.KindBlob)
		builder.AppendBytes(b.staged)
		t, err := builder.Finish()
		if err != nil {
			return nil, err
		}
		b.tree = t
		b.staged = nil
	}
	return encodeChunkRef(b.tree), nil
}

// Len returns the blob length in bytes.
func (b *Blob) Len() uint64 {
	if b.tree == nil {
		return uint64(len(b.staged))
	}
	return b.tree.Count()
}

// Bytes materializes the whole blob.
func (b *Blob) Bytes() ([]byte, error) {
	if b.tree == nil {
		return append([]byte(nil), b.staged...), nil
	}
	return b.tree.Bytes()
}

// ReadAt reads into p starting at offset off, fetching only the chunks
// that cover the range.
func (b *Blob) ReadAt(p []byte, off uint64) (int, error) {
	if b.tree == nil {
		if off >= uint64(len(b.staged)) {
			return 0, nil
		}
		return copy(p, b.staged[off:]), nil
	}
	return b.tree.ReadAt(p, off)
}

// Splice replaces del bytes at offset off with ins.
func (b *Blob) Splice(off, del uint64, ins []byte) error {
	if b.tree == nil {
		if off+del > uint64(len(b.staged)) {
			return fmt.Errorf("types: splice out of range")
		}
		next := make([]byte, 0, uint64(len(b.staged))-del+uint64(len(ins)))
		next = append(next, b.staged[:off]...)
		next = append(next, ins...)
		next = append(next, b.staged[off+del:]...)
		b.staged = next
		return nil
	}
	t, err := b.tree.SpliceBytes(off, del, ins)
	if err != nil {
		return err
	}
	b.tree = t
	return nil
}

// Append appends data to the blob.
func (b *Blob) Append(data []byte) error { return b.Splice(b.Len(), 0, data) }

// Remove deletes n bytes at offset off.
func (b *Blob) Remove(off, n uint64) error { return b.Splice(off, n, nil) }

// Insert inserts data at offset off.
func (b *Blob) Insert(off uint64, data []byte) error { return b.Splice(off, 0, data) }

// Tree exposes the underlying POS-Tree of an attached blob (nil while
// staged); used by diff and instrumentation.
func (b *Blob) Tree() *postree.Tree { return b.tree }

// Map is a chunkable sorted key-value collection.
//
// A fresh Map whose entries arrive in strictly increasing key order —
// an import, a decoded wire value, any sorted load — stages them as a
// run of encoded entries, which persist feeds straight to the tree
// builder. An out-of-order Set, a Delete, or a Get or Iter before
// persist moves the entries into a Go map that persist sorts; the tree
// built is the same either way.
type Map struct {
	tree   *postree.Tree
	staged map[string][]byte // nil while the entries arrive in key order
	run    [][]byte          // the entries in key order, encoded, in blocks no entry spans
	n      int               // entries in run
	last   []byte            // the last entry in run
}

// runBlockMax caps the size of an ordered run's blocks. Blocks double
// up to it, so a small Map stays small and a large one grows without
// ever copying what it holds.
const runBlockMax = 64 << 10

// NewMap returns a fresh, empty Map.
func NewMap() *Map { return &Map{} }

// Type implements Value.
func (*Map) Type() Type { return TypeMap }

func (m *Map) persist(s store.Store, cfg postree.Config) ([]byte, error) {
	if m.tree == nil {
		builder := postree.NewBuilder(s, cfg, postree.KindMap)
		if m.staged == nil {
			m.eachRun(builder.Append)
		} else {
			keys := make([]string, 0, len(m.staged))
			for k := range m.staged {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				builder.Append(postree.EncodeMapElem([]byte(k), m.staged[k]))
			}
		}
		t, err := builder.Finish()
		if err != nil {
			return nil, err
		}
		m.tree = t
		m.staged, m.run, m.n, m.last = nil, nil, 0, nil
	}
	return encodeChunkRef(m.tree), nil
}

// appendRun adds an entry whose key is above every key in the run.
func (m *Map) appendRun(key, value []byte) {
	size := 8 + len(key) + len(value)
	i := len(m.run) - 1
	if i < 0 || cap(m.run[i])-len(m.run[i]) < size {
		c := 256
		if i >= 0 {
			c = min(2*cap(m.run[i]), runBlockMax)
		}
		m.run = append(m.run, make([]byte, 0, max(c, size)))
		i++
	}
	blk := postree.AppendMapElem(m.run[i], key, value)
	m.run[i], m.last = blk, blk[len(blk)-size:]
	m.n++
}

// eachRun calls fn with each entry of the run, encoded, in key order.
// An entry's capacity ends with it, so a value appended to cannot grow
// into the next entry.
func (m *Map) eachRun(fn func(elem []byte)) {
	for _, blk := range m.run {
		for len(blk) > 0 {
			n := postree.MapElemSize(blk)
			fn(blk[:n:n])
			blk = blk[n:]
		}
	}
}

// stageMap moves the entries of the ordered run into the Go map.
func (m *Map) stageMap() {
	if m.staged != nil {
		return
	}
	m.staged = make(map[string][]byte, m.n)
	m.eachRun(func(e []byte) {
		m.staged[string(postree.MapElemKey(e))] = postree.MapElemValue(e)
	})
	m.run, m.n, m.last = nil, 0, nil
}

// Len returns the number of entries.
func (m *Map) Len() uint64 {
	switch {
	case m.tree != nil:
		return m.tree.Count()
	case m.staged == nil:
		return uint64(m.n)
	}
	return uint64(len(m.staged))
}

// Get returns the value for key.
func (m *Map) Get(key []byte) ([]byte, bool, error) {
	if m.tree == nil {
		m.stageMap()
		v, ok := m.staged[string(key)]
		return v, ok, nil
	}
	return m.tree.Get(key)
}

// Set stores key = value.
func (m *Map) Set(key, value []byte) error {
	return m.Apply([]postree.KV{{Key: key, Value: value}}, nil)
}

// Delete removes key.
func (m *Map) Delete(key []byte) error {
	return m.Apply(nil, [][]byte{key})
}

// Apply performs a batch of sets and deletes in one tree pass.
func (m *Map) Apply(sets []postree.KV, deletes [][]byte) error {
	if m.tree == nil {
		for _, kv := range sets {
			if m.staged == nil && (m.last == nil || bytes.Compare(kv.Key, postree.MapElemKey(m.last)) > 0) {
				m.appendRun(kv.Key, kv.Value)
				continue
			}
			m.stageMap()
			m.staged[string(kv.Key)] = append([]byte(nil), kv.Value...)
		}
		if len(deletes) > 0 {
			m.stageMap()
			for _, k := range deletes {
				delete(m.staged, string(k))
			}
		}
		return nil
	}
	t, err := m.tree.MapApply(sets, deletes)
	if err != nil {
		return err
	}
	m.tree = t
	return nil
}

// Iter calls fn for each entry in key order until fn returns false.
func (m *Map) Iter(fn func(key, value []byte) bool) error {
	if m.tree == nil {
		m.stageMap()
		keys := make([]string, 0, len(m.staged))
		for k := range m.staged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !fn([]byte(k), m.staged[k]) {
				return nil
			}
		}
		return nil
	}
	it := m.tree.Elems()
	for it.Next() {
		if !fn(postree.MapElemKey(it.Elem()), postree.MapElemValue(it.Elem())) {
			return nil
		}
	}
	return it.Err()
}

// Tree exposes the underlying POS-Tree (nil while staged).
func (m *Map) Tree() *postree.Tree { return m.tree }

// List is a chunkable element sequence.
type List struct {
	tree   *postree.Tree
	staged [][]byte
}

// NewList returns a fresh List staging the given elements.
func NewList(elems ...[]byte) *List {
	l := &List{}
	for _, e := range elems {
		l.staged = append(l.staged, append([]byte(nil), e...))
	}
	return l
}

// Type implements Value.
func (*List) Type() Type { return TypeList }

func (l *List) persist(s store.Store, cfg postree.Config) ([]byte, error) {
	if l.tree == nil {
		builder := postree.NewBuilder(s, cfg, postree.KindList)
		for _, e := range l.staged {
			builder.Append(postree.EncodeListElem(e))
		}
		t, err := builder.Finish()
		if err != nil {
			return nil, err
		}
		l.tree = t
		l.staged = nil
	}
	return encodeChunkRef(l.tree), nil
}

// Len returns the number of elements.
func (l *List) Len() uint64 {
	if l.tree == nil {
		return uint64(len(l.staged))
	}
	return l.tree.Count()
}

// Get returns element i.
func (l *List) Get(i uint64) ([]byte, error) {
	if l.tree == nil {
		if i >= uint64(len(l.staged)) {
			return nil, fmt.Errorf("types: list index %d out of range", i)
		}
		return l.staged[i], nil
	}
	enc, err := l.tree.GetAt(i)
	if err != nil {
		return nil, err
	}
	return postree.SetElemBody(enc), nil
}

// Splice replaces del elements at position at with ins.
func (l *List) Splice(at, del uint64, ins ...[]byte) error {
	if l.tree == nil {
		if at+del > uint64(len(l.staged)) {
			return fmt.Errorf("types: splice out of range")
		}
		if del == 0 && at == uint64(len(l.staged)) {
			// An append grows the staged slice in place: it is the
			// handle's own, since NewList copies.
			for _, e := range ins {
				l.staged = append(l.staged, append([]byte(nil), e...))
			}
			return nil
		}
		next := make([][]byte, 0, uint64(len(l.staged))-del+uint64(len(ins)))
		next = append(next, l.staged[:at]...)
		for _, e := range ins {
			next = append(next, append([]byte(nil), e...))
		}
		next = append(next, l.staged[at+del:]...)
		l.staged = next
		return nil
	}
	t, err := l.tree.ListSplice(at, del, ins)
	if err != nil {
		return err
	}
	l.tree = t
	return nil
}

// Append appends elements.
func (l *List) Append(elems ...[]byte) error { return l.Splice(l.Len(), 0, elems...) }

// Iter calls fn for each element in order until fn returns false.
func (l *List) Iter(fn func(i uint64, elem []byte) bool) error {
	if l.tree == nil {
		for i, e := range l.staged {
			if !fn(uint64(i), e) {
				return nil
			}
		}
		return nil
	}
	it := l.tree.Elems()
	for i := uint64(0); it.Next(); i++ {
		if !fn(i, postree.SetElemBody(it.Elem())) {
			return nil
		}
	}
	return it.Err()
}

// Tree exposes the underlying POS-Tree (nil while staged).
func (l *List) Tree() *postree.Tree { return l.tree }

// Set is a chunkable sorted collection of unique elements.
type Set struct {
	tree   *postree.Tree
	staged map[string]bool
}

// NewSet returns a fresh Set staging the given elements.
func NewSet(elems ...[]byte) *Set {
	s := &Set{staged: make(map[string]bool)}
	for _, e := range elems {
		s.staged[string(e)] = true
	}
	return s
}

// Type implements Value.
func (*Set) Type() Type { return TypeSet }

func (v *Set) persist(s store.Store, cfg postree.Config) ([]byte, error) {
	if v.tree == nil {
		keys := make([]string, 0, len(v.staged))
		for k := range v.staged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		builder := postree.NewBuilder(s, cfg, postree.KindSet)
		for _, k := range keys {
			builder.Append(postree.EncodeListElem([]byte(k)))
		}
		t, err := builder.Finish()
		if err != nil {
			return nil, err
		}
		v.tree = t
		v.staged = nil
	}
	return encodeChunkRef(v.tree), nil
}

// Len returns the number of elements.
func (v *Set) Len() uint64 {
	if v.tree == nil {
		return uint64(len(v.staged))
	}
	return v.tree.Count()
}

// Has reports whether elem is in the set.
func (v *Set) Has(elem []byte) (bool, error) {
	if v.tree == nil {
		return v.staged[string(elem)], nil
	}
	return v.tree.Has(elem)
}

// Add inserts elements.
func (v *Set) Add(elems ...[]byte) error {
	if v.tree == nil {
		for _, e := range elems {
			v.staged[string(e)] = true
		}
		return nil
	}
	t, err := v.tree.SetAdd(elems...)
	if err != nil {
		return err
	}
	v.tree = t
	return nil
}

// Remove deletes elements.
func (v *Set) Remove(elems ...[]byte) error {
	if v.tree == nil {
		for _, e := range elems {
			delete(v.staged, string(e))
		}
		return nil
	}
	t, err := v.tree.SetRemove(elems...)
	if err != nil {
		return err
	}
	v.tree = t
	return nil
}

// Iter calls fn for each element in order until fn returns false.
func (v *Set) Iter(fn func(elem []byte) bool) error {
	if v.tree == nil {
		keys := make([]string, 0, len(v.staged))
		for k := range v.staged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !fn([]byte(k)) {
				return nil
			}
		}
		return nil
	}
	it := v.tree.Elems()
	for it.Next() {
		if !fn(postree.SetElemBody(it.Elem())) {
			return nil
		}
	}
	return it.Err()
}

// Tree exposes the underlying POS-Tree (nil while staged).
func (v *Set) Tree() *postree.Tree { return v.tree }

// Equal reports whether two values have identical content. Chunkable
// values compare by root cid (the Merkle property) and must be attached;
// primitives compare by their encodings.
func Equal(a, b Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type().Primitive() {
		ea, err1 := a.persist(nil, postree.Config{})
		eb, err2 := b.persist(nil, postree.Config{})
		return err1 == nil && err2 == nil && bytes.Equal(ea, eb)
	}
	ta, tb := valueTree(a), valueTree(b)
	return ta != nil && tb != nil && ta.Root() == tb.Root()
}

// AttachBlob wraps an existing POS-Tree as a Blob handle.
func AttachBlob(t *postree.Tree) *Blob { return &Blob{tree: t} }

// AttachMap wraps an existing POS-Tree as a Map handle.
func AttachMap(t *postree.Tree) *Map { return &Map{tree: t} }

// AttachList wraps an existing POS-Tree as a List handle.
func AttachList(t *postree.Tree) *List { return &List{tree: t} }

// AttachSet wraps an existing POS-Tree as a Set handle.
func AttachSet(t *postree.Tree) *Set { return &Set{tree: t} }

// CloneMap returns an independent handle on the same content. Trees are
// immutable, so an attached clone is a pointer copy; staged state is
// copied.
func CloneMap(m *Map) *Map {
	switch {
	case m.tree != nil:
		return &Map{tree: m.tree}
	case m.staged == nil:
		// Blocks are append-only. The clone's last block is capped at
		// its length, so the next entry either handle adds goes to a
		// block of that handle's own.
		run := append([][]byte(nil), m.run...)
		if k := len(run) - 1; k >= 0 {
			run[k] = run[k][:len(run[k]):len(run[k])]
		}
		return &Map{run: run, n: m.n, last: m.last}
	}
	staged := make(map[string][]byte, len(m.staged))
	for k, v := range m.staged {
		staged[k] = v
	}
	return &Map{staged: staged}
}

// ParseChunkRef decodes the meta-chunk data of a chunkable value into
// its POS-Tree shape parameters. It is the exported face of the
// chunkRef layout for transports that move trees by reference (chunk
// sync) instead of materializing them.
func ParseChunkRef(data []byte) (root chunk.ID, count uint64, height int, err error) {
	root, err = chunkRefRoot(data)
	if err != nil {
		return chunk.ID{}, 0, 0, err
	}
	count = binary.LittleEndian.Uint64(data[chunk.IDSize:])
	height = int(data[chunk.IDSize+8])
	return root, count, height, nil
}

// KindOfType maps a chunkable value type to its POS-Tree kind. The
// second result is false for primitive (or invalid) types, which have
// no tree.
func KindOfType(t Type) (postree.Kind, bool) {
	switch t {
	case TypeBlob:
		return postree.KindBlob, true
	case TypeList:
		return postree.KindList, true
	case TypeMap:
		return postree.KindMap, true
	case TypeSet:
		return postree.KindSet, true
	}
	return 0, false
}

// AttachValue wraps an existing POS-Tree as the value handle matching
// the given chunkable type. The second result is false when t is not a
// chunkable type.
func AttachValue(t Type, tree *postree.Tree) (Value, bool) {
	switch t {
	case TypeBlob:
		return AttachBlob(tree), true
	case TypeList:
		return AttachList(tree), true
	case TypeMap:
		return AttachMap(tree), true
	case TypeSet:
		return AttachSet(tree), true
	}
	return nil, false
}

// TreeOf returns the underlying POS-Tree of an attached chunkable
// value, or nil for primitives and staged handles.
func TreeOf(v Value) *postree.Tree { return valueTree(v) }

// valueTree returns the underlying tree of an attached chunkable value,
// or nil.
func valueTree(v Value) *postree.Tree {
	switch x := v.(type) {
	case *Blob:
		return x.tree
	case *Map:
		return x.tree
	case *List:
		return x.tree
	case *Set:
		return x.tree
	}
	return nil
}
