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

	"forkbase/internal/obs"
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
// Decode (a chunk store reading its own record: DecodeStored); do not
// mutate Data after construction, as the cid is computed from it.
type Chunk struct {
	t    Type
	data []byte
	id   ID
}

// digests counts the sha256 digests computed over chunk bytes, process
// wide; see Digests.
var digests obs.Counter

// Digests returns how many sha256 digests of chunk bytes this process
// has computed: one per New or Decode, one per Rehash. A chunk store
// serving a record it indexed (DecodeStored) adds none, so the count
// says where the trust boundaries are paid.
func Digests() int64 { return digests.Value() }

// sum writes the cid of a chunk of type t over data into id.
func sum(id *ID, t Type, data []byte) {
	digests.Inc()
	h := sha256.New()
	h.Write([]byte{byte(t)})
	h.Write(data)
	h.Sum(id[:0])
}

// New builds a chunk of type t around data and computes its cid.
// The chunk takes ownership of data.
func New(t Type, data []byte) *Chunk {
	c := &Chunk{t: t, data: data}
	sum(&c.id, t, data)
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

// Decode reconstructs a chunk from its serialized form and computes its
// cid; use Verify to check it against an expected id. b is copied and
// stays the caller's.
func Decode(b []byte) (*Chunk, error) {
	t, err := decodeType(b)
	if err != nil {
		return nil, err
	}
	return New(t, append([]byte(nil), b[1:]...)), nil
}

// DecodeStored rebuilds a chunk a store wrote itself and indexed under
// id, taking id on trust instead of hashing: the store hashed these
// bytes when it indexed them (at Put, through New, or at replay,
// through Decode) and has just checked them against its own record
// checksum. Only chunk stores call it. The chunk keeps b's payload
// bytes — b must be a buffer the caller allocated for this one record
// and will not touch again — and Rehash is the check that does not
// trust the store.
func DecodeStored(b []byte, id ID) (*Chunk, error) {
	t, err := decodeType(b)
	if err != nil {
		return nil, err
	}
	return &Chunk{t: t, data: b[1:], id: id}, nil
}

// decodeType reads and checks the type byte of a serialized chunk.
func decodeType(b []byte) (Type, error) {
	if len(b) < 1 {
		return TypeInvalid, fmt.Errorf("chunk: empty serialized chunk")
	}
	t := Type(b[0])
	// TypeMap is the last type: a range check, not a map lookup per read.
	if t == TypeInvalid || t > TypeMap {
		return TypeInvalid, fmt.Errorf("chunk: unknown chunk type %d", b[0])
	}
	return t, nil
}

// Verify reports whether the chunk's id matches want. It compares ids
// and hashes nothing: the id was computed from the bytes by New or
// Decode, or taken on trust from the store that indexed them
// (DecodeStored). It catches a store that answers with a different
// chunk than the one asked for; Rehash also catches one that lies about
// which bytes an id names.
func (c *Chunk) Verify(want ID) error {
	if c.id != want {
		return fmt.Errorf("chunk: integrity violation: have %s want %s", c.id.Short(), want.Short())
	}
	return nil
}

// Rehash recomputes the chunk's digest from its bytes and reports
// whether it is want. It is the tamper-evidence check at the chunk
// level (§2.3, §4.4), run where trust changes: a read under
// store.Verified, whatever the layer below claims.
func (c *Chunk) Rehash(want ID) error {
	var got ID
	if sum(&got, c.t, c.data); got != want {
		return fmt.Errorf("chunk: integrity violation: content hashes to %s, want %s", got.Short(), want.Short())
	}
	return nil
}
