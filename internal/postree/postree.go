// Package postree implements the Pattern-Oriented-Split Tree (paper §4.3),
// the index structure at the heart of ForkBase. A POS-Tree resembles a
// B+-tree whose node boundaries are not capacity-based but derived from
// the content itself: leaf chunks end where a rolling hash over the data
// matches a pattern, and index chunks end where a child cid matches a
// pattern. Node pointers are cids (cryptographic hashes of child
// content), so the tree is simultaneously a Merkle tree.
//
// Consequences, exactly as the paper claims:
//
//   - Two objects with identical content have bit-identical trees, no
//     matter through which edit sequence they were produced, so chunks
//     are shared (deduplicated) across versions and across objects.
//   - Comparing two trees descends only into subtrees whose cids differ.
//   - Any node can be verified against the cid that referenced it, which
//     makes the whole object tamper-evident.
//
// One Tree value is an immutable snapshot; all mutating operations return
// a new Tree that shares unchanged chunks with the receiver (copy on
// write).
package postree

import (
	"encoding/binary"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// Config sets the expected and maximum chunk sizes (§4.3.3). The paper's
// default is 4 KB chunks with a forced split at alpha (=8) times the
// average size.
type Config struct {
	// LeafQ is q: expected leaf chunk size is 2^q bytes.
	LeafQ uint
	// IndexR is r: expected index fan-out is 2^r entries.
	IndexR uint
	// MaxLeafBytes forces a leaf boundary; 0 means 8 * 2^LeafQ.
	MaxLeafBytes int
	// MaxIndexEntries forces an index boundary; 0 means 8 * 2^IndexR.
	MaxIndexEntries int
}

// DefaultConfig matches the paper's evaluation setup: 4 KB expected
// chunks for both leaf and index nodes (index entries are ~44 bytes, so
// r=6 gives 64-entry ≈ 3 KB index chunks) and alpha = 8.
func DefaultConfig() Config {
	return Config{LeafQ: 12, IndexR: 6}
}

func (c Config) maxLeaf() int {
	if c.MaxLeafBytes > 0 {
		return c.MaxLeafBytes
	}
	return 8 << c.LeafQ
}

func (c Config) maxIndex() int {
	if c.MaxIndexEntries > 0 {
		return c.MaxIndexEntries
	}
	return 8 << c.IndexR
}

// Kind discriminates the leaf payload layout. Sorted kinds (Set, Map)
// use SIndex nodes with split keys; unsorted kinds (Blob, List) use
// UIndex nodes with element counts.
type Kind byte

const (
	// KindBlob is an unsorted raw byte sequence; elements are bytes.
	KindBlob Kind = iota
	// KindList is an unsorted sequence of variable-length elements.
	KindList
	// KindSet is a sorted sequence of unique elements.
	KindSet
	// KindMap is a sorted sequence of unique key-value pairs.
	KindMap
)

// Sorted reports whether the kind maintains key order.
func (k Kind) Sorted() bool { return k == KindSet || k == KindMap }

// leafType returns the chunk type used for leaf nodes of this kind.
func (k Kind) leafType() chunk.Type {
	switch k {
	case KindBlob:
		return chunk.TypeBlob
	case KindList:
		return chunk.TypeList
	case KindSet:
		return chunk.TypeSet
	case KindMap:
		return chunk.TypeMap
	}
	panic("postree: bad kind")
}

// indexType returns the chunk type used for index nodes of this kind.
func (k Kind) indexType() chunk.Type {
	if k.Sorted() {
		return chunk.TypeSIndex
	}
	return chunk.TypeUIndex
}

func (k Kind) String() string {
	switch k {
	case KindBlob:
		return "Blob"
	case KindList:
		return "List"
	case KindSet:
		return "Set"
	case KindMap:
		return "Map"
	}
	return fmt.Sprintf("Kind(%d)", byte(k))
}

// Tree is an immutable POS-Tree snapshot rooted at a chunk. The zero
// Tree is not usable; obtain one from a Builder, Load, or an edit method.
type Tree struct {
	s      store.Store
	cfg    Config
	kind   Kind
	root   chunk.ID // NilID when the tree is empty
	count  uint64   // elements (bytes for Blob)
	height int      // 0 when empty, 1 when the root is a leaf
}

// Empty returns the empty tree of the given kind.
func Empty(s store.Store, cfg Config, kind Kind) *Tree {
	return &Tree{s: s, cfg: cfg, kind: kind}
}

// Attach builds a Tree handle from known shape parameters without
// touching the store. Callers (e.g. FObject decoding) persist count and
// height alongside the root cid precisely to avoid the walk Load does.
func Attach(s store.Store, cfg Config, kind Kind, root chunk.ID, count uint64, height int) *Tree {
	return &Tree{s: s, cfg: cfg, kind: kind, root: root, count: count, height: height}
}

// Load reconstructs a Tree handle from a root cid, deriving height and
// element count from the root node. Loading the zero cid yields the
// empty tree.
func Load(s store.Store, cfg Config, kind Kind, root chunk.ID) (*Tree, error) {
	t := &Tree{s: s, cfg: cfg, kind: kind, root: root}
	if root.IsNil() {
		return t, nil
	}
	c, err := store.GetVerified(s, root)
	if err != nil {
		return nil, err
	}
	t.height = 1
	for cur := c; isIndex(cur.Type()); t.height++ {
		ic := indexCursor{p: cur.Data()}
		first, ok, err := ic.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, &CorruptNodeError{0, "index node without entries"}
		}
		if t.height == 1 { // root: counts sum to the total
			t.count = first.count
			for {
				e, ok, err := ic.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				t.count += e.count
			}
		}
		if cur, err = store.GetVerified(s, first.id); err != nil {
			return nil, err
		}
	}
	if t.height == 1 {
		n, err := leafCount(t.kind, c.Data())
		if err != nil {
			return nil, err
		}
		t.count = n
	}
	return t, nil
}

// Root returns the root cid (NilID for the empty tree).
func (t *Tree) Root() chunk.ID { return t.root }

// Count returns the number of elements (bytes for Blob).
func (t *Tree) Count() uint64 { return t.count }

// Height returns the number of levels (0 when empty).
func (t *Tree) Height() int { return t.height }

// Kind returns the tree's kind.
func (t *Tree) Kind() Kind { return t.kind }

// Store returns the backing chunk store.
func (t *Tree) Store() store.Store { return t.s }

func isIndex(t chunk.Type) bool {
	return t == chunk.TypeUIndex || t == chunk.TypeSIndex
}

// entry is one index-node slot: the split key (empty for unsorted
// kinds), the number of elements in the subtree, and the child cid.
type entry struct {
	key   []byte
	count uint64
	id    chunk.ID
}

// entrySize is the length of e's encoding.
func entrySize(e entry) int { return 4 + len(e.key) + 8 + len(e.id) }

func appendEntry(dst []byte, e entry) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(e.key)))
	dst = append(dst, b[0:4]...)
	dst = append(dst, e.key...)
	binary.LittleEndian.PutUint64(b[0:8], e.count)
	dst = append(dst, b[0:8]...)
	dst = append(dst, e.id[:]...)
	return dst
}

// leafCount returns the number of elements in a leaf payload.
func leafCount(k Kind, payload []byte) (uint64, error) {
	if k == KindBlob {
		return uint64(len(payload)), nil
	}
	var n uint64
	for len(payload) > 0 {
		sz, adv, err := elementAt(k, payload)
		if err != nil {
			return 0, err
		}
		_ = sz
		payload = payload[adv:]
		n++
	}
	return n, nil
}

// elementAt parses the first element of a non-Blob leaf payload and
// returns its body and total advance.
func elementAt(k Kind, payload []byte) (body []byte, adv int, err error) {
	switch k {
	case KindList, KindSet:
		if len(payload) < 4 {
			return nil, 0, fmt.Errorf("postree: truncated element")
		}
		n := int(binary.LittleEndian.Uint32(payload))
		if len(payload) < 4+n {
			return nil, 0, fmt.Errorf("postree: truncated element")
		}
		return payload[: 4+n : 4+n], 4 + n, nil
	case KindMap:
		if len(payload) < 8 {
			return nil, 0, fmt.Errorf("postree: truncated map element")
		}
		kl := int(binary.LittleEndian.Uint32(payload))
		if len(payload) < 8+kl {
			return nil, 0, fmt.Errorf("postree: truncated map element")
		}
		vl := int(binary.LittleEndian.Uint32(payload[4+kl:]))
		tot := 8 + kl + vl
		if len(payload) < tot {
			return nil, 0, fmt.Errorf("postree: truncated map element")
		}
		return payload[:tot:tot], tot, nil
	}
	return nil, 0, fmt.Errorf("postree: elementAt on kind %v", k)
}

// EncodeListElem encodes a List/Set element body.
func EncodeListElem(body []byte) []byte {
	return appendListElem(make([]byte, 0, 4+len(body)), body)
}

// appendListElem appends the encoding of a List/Set element to dst.
func appendListElem(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// EncodeMapElem encodes a Map key-value pair.
func EncodeMapElem(key, value []byte) []byte {
	return AppendMapElem(make([]byte, 0, 8+len(key)+len(value)), key, value)
}

// AppendMapElem appends the encoding of a Map key-value pair to dst.
func AppendMapElem(dst, key, value []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	return append(dst, value...)
}

// MapElemSize returns the size of the encoded Map element p starts
// with, which must be well formed.
func MapElemSize(p []byte) int {
	kl := int(binary.LittleEndian.Uint32(p))
	return 8 + kl + int(binary.LittleEndian.Uint32(p[4+kl:]))
}

// elemKey extracts the sort key of an encoded element: the element body
// for Set, the key part for Map.
func elemKey(k Kind, encoded []byte) []byte {
	switch k {
	case KindSet:
		return encoded[4:]
	case KindMap:
		kl := int(binary.LittleEndian.Uint32(encoded))
		return encoded[4 : 4+kl : 4+kl]
	}
	return nil
}

// MapElemValue extracts the value part of an encoded Map element.
func MapElemValue(encoded []byte) []byte {
	kl := int(binary.LittleEndian.Uint32(encoded))
	return encoded[8+kl:]
}

// MapElemKey extracts the key part of an encoded Map element.
func MapElemKey(encoded []byte) []byte { return elemKey(KindMap, encoded) }

// SetElemBody extracts the body of an encoded Set/List element.
func SetElemBody(encoded []byte) []byte { return encoded[4:] }

// getChunk fetches one tree node through the store stack the tree was
// attached to — a store.Cache turns the repeated root/index reads of
// Get/GetAt/ReadAt and the shared-subtree reads of iterators into
// memory lookups — and verifies it against the cid that referenced it,
// which is the Merkle property making every traversal tamper-evident.
// (The check compares the digest computed when the chunk was decoded;
// it does not re-hash on every read.)
func (t *Tree) getChunk(id chunk.ID) (*chunk.Chunk, error) {
	return store.GetVerified(t.s, id)
}

// leafChunker returns a chunker configured for this tree's leaves.
func (t *Tree) leafChunker() *rollsum.Chunker {
	return rollsum.NewChunker(t.cfg.LeafQ, t.cfg.maxLeaf())
}
