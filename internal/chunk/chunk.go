// Package chunk defines the basic unit of storage in ForkBase.
//
// A chunk is an immutable, typed byte string identified by its cid, the
// SHA-256 hash of its serialized form (type byte followed by payload).
// Because the cid is a cryptographic digest of the content, chunks with
// equal cids contain identical bytes; this property underpins both the
// deduplication and the tamper evidence of the engine (paper §4.2.1).
package chunk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Type tags the payload layout of a chunk (paper Table 2).
type Type byte

const (
	// TypeInvalid is the zero Type; no valid chunk carries it.
	TypeInvalid Type = iota
	// TypeMeta holds the serialized FObject structure.
	TypeMeta
	// TypeUIndex holds index entries for unsorted chunkable types
	// (Blob, List): pairs of (subtree element count, child cid).
	TypeUIndex
	// TypeSIndex holds index entries for sorted chunkable types
	// (Set, Map): pairs of (split key, child cid).
	TypeSIndex
	// TypeBlob holds a raw byte sequence.
	TypeBlob
	// TypeList holds a sequence of length-prefixed elements.
	TypeList
	// TypeSet holds a sequence of sorted, length-prefixed elements.
	TypeSet
	// TypeMap holds a sequence of sorted, length-prefixed key-value pairs.
	TypeMap
)

var typeNames = map[Type]string{
	TypeInvalid: "Invalid",
	TypeMeta:    "Meta",
	TypeUIndex:  "UIndex",
	TypeSIndex:  "SIndex",
	TypeBlob:    "Blob",
	TypeList:    "List",
	TypeSet:     "Set",
	TypeMap:     "Map",
}

// String returns the human-readable chunk type name.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// IDSize is the size of a cid in bytes (SHA-256 digest length).
const IDSize = sha256.Size

// ID is a chunk identifier: the SHA-256 digest of the chunk bytes.
// The zero ID is reserved as "no chunk".
type ID [IDSize]byte

// NilID is the zero chunk identifier, meaning "no chunk".
var NilID ID

// IsNil reports whether id is the zero identifier.
func (id ID) IsNil() bool { return id == NilID }

// String returns the full hexadecimal form of the identifier.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated hexadecimal prefix for logs and errors.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// ParseID decodes a 64-character hexadecimal string into an ID.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != IDSize*2 {
		return id, fmt.Errorf("chunk: bad id length %d", len(s))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("chunk: bad id: %w", err)
	}
	return id, nil
}

// Chunk is an immutable typed byte string. Construct one with New or
// Decode; do not mutate Data after construction, as the cid is computed
// from it.
type Chunk struct {
	t    Type
	data []byte
	id   ID
}

// New builds a chunk of type t around data and computes its cid.
// The chunk takes ownership of data.
func New(t Type, data []byte) *Chunk {
	c := &Chunk{t: t, data: data}
	h := sha256.New()
	h.Write([]byte{byte(t)})
	h.Write(data)
	h.Sum(c.id[:0])
	return c
}

// Type returns the chunk's type tag.
func (c *Chunk) Type() Type { return c.t }

// Data returns the chunk payload. Callers must not modify it.
func (c *Chunk) Data() []byte { return c.data }

// ID returns the chunk's content identifier.
func (c *Chunk) ID() ID { return c.id }

// Size returns the serialized size in bytes (type byte + payload).
func (c *Chunk) Size() int { return 1 + len(c.data) }

// Bytes returns the serialized form: one type byte followed by the payload.
func (c *Chunk) Bytes() []byte {
	b := make([]byte, 1+len(c.data))
	b[0] = byte(c.t)
	copy(b[1:], c.data)
	return b
}

// Decode reconstructs a chunk from its serialized form and verifies
// nothing about it; use Verify to check integrity against an expected id.
// b is copied and stays the caller's.
func Decode(b []byte) (*Chunk, error) {
	return DecodeOwned(append([]byte(nil), b...))
}

// DecodeOwned is Decode for a buffer the caller allocated for this one
// chunk — a record just read from disk — and will not touch again: the
// chunk keeps b's payload bytes instead of copying them.
func DecodeOwned(b []byte) (*Chunk, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("chunk: empty serialized chunk")
	}
	t := Type(b[0])
	if _, ok := typeNames[t]; !ok || t == TypeInvalid {
		return nil, fmt.Errorf("chunk: unknown chunk type %d", b[0])
	}
	return New(t, b[1:]), nil
}

// Verify recomputes the chunk's digest and reports whether it matches
// want. It is the tamper-evidence check at the chunk level (§4.4).
func (c *Chunk) Verify(want ID) error {
	if c.id != want {
		return fmt.Errorf("chunk: integrity violation: have %s want %s", c.id.Short(), want.Short())
	}
	return nil
}
