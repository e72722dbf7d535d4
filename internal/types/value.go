// Package types implements ForkBase's data model (paper §3): the FObject
// version structure and the built-in value types. Primitive types
// (String, Int, Float, Bool, Tuple) are small and embedded directly in
// the FObject's meta chunk for fast access; chunkable types (Blob, List,
// Map, Set) are stored as POS-Trees and deduplicated (§3.4, §4.2.2).
package types

import (
	"encoding/binary"
	"fmt"
	"math"

	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// Type identifies a value type.
type Type byte

const (
	// TypeInvalid is the zero Type.
	TypeInvalid Type = iota
	// TypeString is a primitive byte string.
	TypeString
	// TypeInt is a primitive signed 64-bit integer.
	TypeInt
	// TypeFloat is a primitive 64-bit float.
	TypeFloat
	// TypeBool is a primitive boolean.
	TypeBool
	// TypeTuple is a primitive ordered collection of small byte strings.
	TypeTuple
	// TypeBlob is a chunkable byte sequence.
	TypeBlob
	// TypeList is a chunkable element sequence.
	TypeList
	// TypeMap is a chunkable sorted key-value collection.
	TypeMap
	// TypeSet is a chunkable sorted element collection.
	TypeSet
)

var typeNames = map[Type]string{
	TypeString: "String", TypeInt: "Int", TypeFloat: "Float", TypeBool: "Bool",
	TypeTuple: "Tuple", TypeBlob: "Blob", TypeList: "List", TypeMap: "Map", TypeSet: "Set",
}

// String returns the type name.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// Primitive reports whether values of this type are embedded in the meta
// chunk rather than stored as a POS-Tree.
func (t Type) Primitive() bool {
	switch t {
	case TypeString, TypeInt, TypeFloat, TypeBool, TypeTuple:
		return true
	}
	return false
}

// Value is a typed ForkBase value. Primitive values are self-contained;
// chunkable values are handles onto POS-Trees and fetch data on demand.
type Value interface {
	// Type returns the value's type tag.
	Type() Type
	// persist writes any underlying chunks to s and returns the data
	// field to embed in the meta chunk.
	persist(s store.Store, cfg postree.Config) ([]byte, error)
}

// String is a primitive byte string optimized for fast access.
type String string

// Type implements Value.
func (String) Type() Type { return TypeString }

func (v String) persist(store.Store, postree.Config) ([]byte, error) {
	return []byte(v), nil
}

// Append returns the string with suffix appended (§3.4 type-specific op).
func (v String) Append(suffix string) String { return v + String(suffix) }

// Insert returns the string with sub inserted at byte offset at.
func (v String) Insert(at int, sub string) (String, error) {
	if at < 0 || at > len(v) {
		return v, fmt.Errorf("types: insert offset %d out of range", at)
	}
	return v[:at] + String(sub) + v[at:], nil
}

// Int is a primitive signed integer.
type Int int64

// Type implements Value.
func (Int) Type() Type { return TypeInt }

func (v Int) persist(store.Store, postree.Config) ([]byte, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:], nil
}

// Add returns v + d (§3.4 numerical op).
func (v Int) Add(d int64) Int { return v + Int(d) }

// Multiply returns v * d.
func (v Int) Multiply(d int64) Int { return v * Int(d) }

// Float is a primitive 64-bit float.
type Float float64

// Type implements Value.
func (Float) Type() Type { return TypeFloat }

func (v Float) persist(store.Store, postree.Config) ([]byte, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(v)))
	return b[:], nil
}

// Add returns v + d.
func (v Float) Add(d float64) Float { return v + Float(d) }

// Multiply returns v * d.
func (v Float) Multiply(d float64) Float { return v * Float(d) }

// Bool is a primitive boolean.
type Bool bool

// Type implements Value.
func (Bool) Type() Type { return TypeBool }

func (v Bool) persist(store.Store, postree.Config) ([]byte, error) {
	if v {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

// Tuple is a primitive ordered collection of small byte strings, suited
// to things like relational records (§5.3).
type Tuple [][]byte

// Type implements Value.
func (Tuple) Type() Type { return TypeTuple }

func (v Tuple) persist(store.Store, postree.Config) ([]byte, error) {
	return EncodeTuple(v), nil
}

// EncodeTuple serializes a tuple as length-prefixed fields.
func EncodeTuple(v Tuple) []byte {
	n := 4
	for _, f := range v {
		n += 4 + len(f)
	}
	out := make([]byte, 0, n)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(v)))
	out = append(out, b[:]...)
	for _, f := range v {
		binary.LittleEndian.PutUint32(b[:], uint32(len(f)))
		out = append(out, b[:]...)
		out = append(out, f...)
	}
	return out
}

// TupleReader walks the fields of a serialized tuple in place: Next
// returns each field as a slice of the encoding, so a reader that
// wants one column of a row pays for no others. DecodeTuple and
// TupleField are built on it.
type TupleReader struct {
	rest []byte
	left int
}

// ReadTuple opens a serialized tuple. The field count is checked
// against the bytes that follow it — every field costs at least its
// 4-byte length — before anyone sizes an allocation by it.
func ReadTuple(data []byte) (TupleReader, error) {
	if len(data) < 4 {
		return TupleReader{}, fmt.Errorf("types: truncated tuple")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(n) > uint64(len(data)/4) {
		return TupleReader{}, fmt.Errorf("types: tuple claims %d fields in %d bytes", n, len(data))
	}
	return TupleReader{rest: data, left: int(n)}, nil
}

// Len returns the number of fields not yet read.
func (r *TupleReader) Len() int { return r.left }

// Next returns the next field. It must not be called more than Len
// times.
func (r *TupleReader) Next() ([]byte, error) {
	if r.left <= 0 || len(r.rest) < 4 {
		return nil, fmt.Errorf("types: truncated tuple field")
	}
	fl := int(binary.LittleEndian.Uint32(r.rest))
	if len(r.rest)-4 < fl {
		return nil, fmt.Errorf("types: truncated tuple field")
	}
	f := r.rest[4 : 4+fl : 4+fl]
	r.rest, r.left = r.rest[4+fl:], r.left-1
	return f, nil
}

// DecodeTuple parses a serialized tuple. The fields alias data.
func DecodeTuple(data []byte) (Tuple, error) {
	r, err := ReadTuple(data)
	if err != nil {
		return nil, err
	}
	out := make(Tuple, r.Len())
	for i := range out {
		if out[i], err = r.Next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TupleField returns field i of a serialized tuple without decoding
// the others. The field aliases data.
func TupleField(data []byte, i int) ([]byte, error) {
	r, err := ReadTuple(data)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= r.Len() {
		return nil, fmt.Errorf("types: tuple has %d fields, field %d wanted", r.Len(), i)
	}
	for ; i > 0; i-- {
		if _, err := r.Next(); err != nil {
			return nil, err
		}
	}
	return r.Next()
}

// Field returns the i-th field.
func (v Tuple) Field(i int) []byte { return v[i] }

// Append returns the tuple with fields appended.
func (v Tuple) Append(fields ...[]byte) Tuple {
	return append(append(Tuple{}, v...), fields...)
}

// Insert returns the tuple with a field inserted at position i.
func (v Tuple) Insert(i int, field []byte) (Tuple, error) {
	if i < 0 || i > len(v) {
		return v, fmt.Errorf("types: insert index %d out of range", i)
	}
	out := make(Tuple, 0, len(v)+1)
	out = append(out, v[:i]...)
	out = append(out, field)
	out = append(out, v[i:]...)
	return out, nil
}

// decodePrimitive reconstructs a primitive value from meta-chunk data.
func decodePrimitive(t Type, data []byte) (Value, error) {
	switch t {
	case TypeString:
		return String(data), nil
	case TypeInt:
		if len(data) != 8 {
			return nil, fmt.Errorf("types: bad Int encoding")
		}
		return Int(binary.LittleEndian.Uint64(data)), nil
	case TypeFloat:
		if len(data) != 8 {
			return nil, fmt.Errorf("types: bad Float encoding")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(data))), nil
	case TypeBool:
		if len(data) != 1 {
			return nil, fmt.Errorf("types: bad Bool encoding")
		}
		return Bool(data[0] != 0), nil
	case TypeTuple:
		return DecodeTuple(data)
	}
	return nil, fmt.Errorf("types: %v is not primitive", t)
}
