package types

import (
	"encoding/binary"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// UID identifies a version: it is the cid of the FObject's meta chunk,
// and therefore commits to both the value and — through the bases field
// — the entire derivation history (§3.2). The storage cannot present a
// forged history without breaking the hash chain.
type UID = chunk.ID

// FObject is a node in the object derivation graph (paper Figure 2).
type FObject struct {
	// VType is the value type held by this version.
	VType Type
	// Key is the object key.
	Key []byte
	// Depth is the distance to the first version.
	Depth uint64
	// Bases are the uids of the versions this one derives from: one
	// for ordinary updates, two or more for merge results, none for
	// an initial version.
	Bases []UID
	// Context is reserved for application metadata, e.g. a commit
	// message or a proof-of-work nonce.
	Context []byte
	// Data is the inline primitive encoding, or the POS-Tree
	// reference for chunkable types.
	Data []byte

	uid UID // cid of the meta chunk; set by Save/LoadFObject
}

// UID returns the version identifier (zero until Save or LoadFObject).
func (o *FObject) UID() UID { return o.uid }

// encode serializes the FObject into a meta-chunk payload.
func (o *FObject) encode() []byte {
	n := 1 + 4 + len(o.Key) + 8 + 2 + len(o.Bases)*chunk.IDSize + 4 + len(o.Context) + 4 + len(o.Data)
	out := make([]byte, 0, n)
	var b [8]byte
	out = append(out, byte(o.VType))
	binary.LittleEndian.PutUint32(b[:4], uint32(len(o.Key)))
	out = append(out, b[:4]...)
	out = append(out, o.Key...)
	binary.LittleEndian.PutUint64(b[:8], o.Depth)
	out = append(out, b[:8]...)
	binary.LittleEndian.PutUint16(b[:2], uint16(len(o.Bases)))
	out = append(out, b[:2]...)
	for _, base := range o.Bases {
		out = append(out, base[:]...)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(o.Context)))
	out = append(out, b[:4]...)
	out = append(out, o.Context...)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(o.Data)))
	out = append(out, b[:4]...)
	out = append(out, o.Data...)
	return out
}

// decodeFObject parses a meta-chunk payload.
func decodeFObject(payload []byte) (*FObject, error) {
	bad := func() (*FObject, error) { return nil, fmt.Errorf("types: truncated FObject") }
	if len(payload) < 1+4 {
		return bad()
	}
	o := &FObject{VType: Type(payload[0])}
	payload = payload[1:]
	kl := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < kl+8+2 {
		return bad()
	}
	o.Key = payload[:kl:kl]
	payload = payload[kl:]
	o.Depth = binary.LittleEndian.Uint64(payload)
	payload = payload[8:]
	nb := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < nb*chunk.IDSize {
		return bad()
	}
	for i := 0; i < nb; i++ {
		var id UID
		copy(id[:], payload[:chunk.IDSize])
		o.Bases = append(o.Bases, id)
		payload = payload[chunk.IDSize:]
	}
	if len(payload) < 4 {
		return bad()
	}
	cl := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < cl+4 {
		return bad()
	}
	o.Context = payload[:cl:cl]
	payload = payload[cl:]
	dl := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < dl {
		return bad()
	}
	o.Data = payload[:dl:dl]
	return o, nil
}

// Save persists value v as a new FObject deriving from bases and returns
// it with its uid assigned. The value's chunks (for chunkable types) are
// written first, then the meta chunk.
func Save(s store.Store, cfg postree.Config, key []byte, v Value, bases []*FObject, context []byte) (*FObject, error) {
	data, err := v.persist(s, cfg)
	if err != nil {
		return nil, err
	}
	o := &FObject{
		VType:   v.Type(),
		Key:     append([]byte(nil), key...),
		Context: append([]byte(nil), context...),
		Data:    data,
	}
	for _, b := range bases {
		o.Bases = append(o.Bases, b.uid)
		if b.Depth+1 > o.Depth {
			o.Depth = b.Depth + 1
		}
	}
	c := chunk.New(chunk.TypeMeta, o.encode())
	if _, err := s.Put(c); err != nil {
		return nil, err
	}
	o.uid = c.ID()
	return o, nil
}

// Persist writes a value's chunks without creating a version: the
// POS-Tree half of a Put, which a chunk-sync client runs on its own
// store before committing the tree by its root. After Persist, Save on
// the same handle reuses the built tree.
func Persist(s store.Store, cfg postree.Config, v Value) error {
	_, err := v.persist(s, cfg)
	return err
}

// MarshalFObject returns the version's canonical meta-chunk payload,
// the transportable form of an FObject. The uid travels implicitly:
// it is the digest of exactly these bytes, so UnmarshalFObject
// recomputes it — a transport cannot alter a version or mis-attribute
// a uid without the receiver noticing.
func MarshalFObject(o *FObject) []byte { return o.encode() }

// UnmarshalFObject parses a meta-chunk payload produced by
// MarshalFObject and recomputes the version's uid from the bytes,
// preserving tamper evidence (§3.2) across transports.
func UnmarshalFObject(payload []byte) (*FObject, error) {
	o, err := decodeFObject(payload)
	if err != nil {
		return nil, err
	}
	o.uid = chunk.New(chunk.TypeMeta, payload).ID()
	return o, nil
}

// LoadFObject fetches and verifies the FObject with the given uid.
func LoadFObject(s store.Store, uid UID) (*FObject, error) {
	c, err := store.GetVerified(s, uid)
	if err != nil {
		return nil, err
	}
	if c.Type() != chunk.TypeMeta {
		return nil, fmt.Errorf("types: uid %s is a %v chunk, not Meta", uid.Short(), c.Type())
	}
	o, err := decodeFObject(c.Data())
	if err != nil {
		return nil, err
	}
	o.uid = uid
	return o, nil
}

// Value decodes the FObject's value, attaching chunkable handles to s.
func (o *FObject) Value(s store.Store, cfg postree.Config) (Value, error) {
	if o.VType.Primitive() {
		return decodePrimitive(o.VType, o.Data)
	}
	var kind postree.Kind
	switch o.VType {
	case TypeBlob:
		kind = postree.KindBlob
	case TypeList:
		kind = postree.KindList
	case TypeMap:
		kind = postree.KindMap
	case TypeSet:
		kind = postree.KindSet
	default:
		return nil, fmt.Errorf("types: cannot decode value of type %v", o.VType)
	}
	t, err := decodeChunkRef(s, cfg, kind, o.Data)
	if err != nil {
		return nil, err
	}
	switch o.VType {
	case TypeBlob:
		return &Blob{tree: t}, nil
	case TypeList:
		return &List{tree: t}, nil
	case TypeMap:
		return &Map{tree: t}, nil
	default:
		return &Set{tree: t}, nil
	}
}

// VerifyHistory walks the derivation chain from o back to the first
// version, verifying every meta chunk against its uid, and returns the
// number of versions checked. It follows first bases, i.e. the primary
// derivation line. A storage provider that rewrote any ancestor would be
// detected here (§3.2).
func (o *FObject) VerifyHistory(s store.Store) (int, error) {
	n := 1
	cur := o
	for len(cur.Bases) > 0 {
		prev, err := LoadFObject(s, cur.Bases[0])
		if err != nil {
			return n, fmt.Errorf("types: history broken at depth %d: %w", cur.Depth, err)
		}
		cur = prev
		n++
	}
	return n, nil
}
