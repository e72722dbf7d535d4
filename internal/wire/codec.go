package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"

	"forkbase/internal/branch"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/merge"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// ErrCodec reports a payload that does not decode: truncated, an
// impossible length, an unknown tag. Unlike ErrFrame it is scoped to
// one request — the frame around it was intact, so the connection
// survives; only the request fails.
var ErrCodec = errors.New("wire: malformed payload")

// nilLen is the length sentinel distinguishing a nil byte slice from
// an empty one (Conflict fields and metadata rely on the difference).
const nilLen = math.MaxUint32

// --- encoder ---------------------------------------------------------

// Enc builds a payload. The zero value is ready to use.
type Enc struct{ buf []byte }

// EncWith returns an encoder that appends onto buf (reset to empty),
// so hot paths can feed pooled buffers through the codec instead of
// growing a fresh allocation per message.
func EncWith(buf []byte) Enc { return Enc{buf: buf[:0]} }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// UID appends a fixed-size chunk identifier.
func (e *Enc) UID(id chunk.ID) { e.buf = append(e.buf, id[:]...) }

// Blob appends a length-prefixed byte string, preserving nil-ness.
func (e *Enc) Blob(b []byte) {
	if b == nil {
		e.U32(nilLen)
		return
	}
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// --- decoder ---------------------------------------------------------

// Dec consumes a payload with sticky error handling: after the first
// violation every subsequent read returns a zero value, and Err
// reports the failure. Every read is bounds-checked — arbitrary
// garbage can never panic a decoder, only fail it.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over the payload.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decoding violation, if any.
func (d *Dec) Err() error { return d.err }

// fail records the first violation.
func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCodec, what, d.off)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail(fmt.Sprintf("need %d bytes, have %d", n, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// UID reads a fixed-size chunk identifier.
func (d *Dec) UID() chunk.ID {
	var id chunk.ID
	copy(id[:], d.take(chunk.IDSize))
	return id
}

// Blob reads a length-prefixed byte string (nil-aware). The claimed
// length is validated against the remaining payload before any
// allocation, so a hostile length cannot balloon memory.
func (d *Dec) Blob() []byte {
	n := d.U32()
	if n == nilLen {
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		// Distinguishable from a decoded nil only through d.err.
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// BlobRef is Blob without the defensive copy: the returned slice
// aliases the decoder's underlying buffer. It exists for the server's
// hot path, where the payload buffer is pooled and reused for the
// next frame — the caller must therefore fully consume (or copy) the
// result before that reuse. Safe today because every sink on those
// paths copies on ingest: types.NewBlob and friends copy staged
// bytes, and chunk.Decode copies the chunk body.
func (d *Dec) BlobRef() []byte {
	n := d.U32()
	if n == nilLen {
		return nil
	}
	return d.take(int(n))
}

// Str reads a length-prefixed string. When the bytes spell one of
// reuse, that string comes back itself instead of a fresh copy.
func (d *Dec) Str(reuse ...string) string {
	n := d.U32()
	if n == nilLen {
		d.fail("nil sentinel in string")
		return ""
	}
	b := d.take(int(n))
	for _, s := range reuse {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// Count reads a u32 element count for elements of at least elemMin
// bytes each, rejecting counts the remaining payload cannot hold.
func (d *Dec) Count(elemMin int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if elemMin > 0 && int64(n)*int64(elemMin) > int64(len(d.buf)-d.off) {
		d.fail(fmt.Sprintf("count %d exceeds payload", n))
		return 0
	}
	return int(n)
}

// --- values ----------------------------------------------------------

// EncodeValue serializes a Value by content: primitives by their
// canonical encodings, chunkable types fully materialized. The remote
// protocol ships content, not trees — the receiving end rebuilds the
// POS-Tree, and content-defined chunking guarantees the rebuilt tree
// has the same root cid as the original.
func EncodeValue(e *Enc, v types.Value) error {
	e.U8(uint8(v.Type()))
	switch x := v.(type) {
	case types.String:
		e.Str(string(x))
	case types.Int:
		e.I64(int64(x))
	case types.Float:
		e.U64(math.Float64bits(float64(x)))
	case types.Bool:
		e.Bool(bool(x))
	case types.Tuple:
		e.Blob(types.EncodeTuple(x))
	case *types.Blob:
		data, err := x.Bytes()
		if err != nil {
			return err
		}
		e.Blob(data)
	case *types.List:
		e.U32(uint32(x.Len()))
		if err := x.Iter(func(_ uint64, elem []byte) bool {
			e.Blob(elem)
			return true
		}); err != nil {
			return err
		}
	case *types.Map:
		e.U32(uint32(x.Len()))
		if err := x.Iter(func(key, value []byte) bool {
			e.Blob(key)
			e.Blob(value)
			return true
		}); err != nil {
			return err
		}
	case *types.Set:
		e.U32(uint32(x.Len()))
		if err := x.Iter(func(elem []byte) bool {
			e.Blob(elem)
			return true
		}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("wire: cannot encode value type %T", v)
	}
	return nil
}

// DecodeValue reconstructs a Value. Chunkable types come back staged
// (unattached to any store), exactly like a freshly built NewBlob /
// NewMap / NewList / NewSet — ready to be read, edited and Put.
func DecodeValue(d *Dec) (types.Value, error) {
	return decodeValue(d, false)
}

// DecodeValueRef is DecodeValue feeding byte fields through BlobRef
// instead of Blob: no intermediate copy between the frame buffer and
// the value. The returned Value never aliases the payload — the
// types constructors copy staged bytes on ingest — so it outlives any
// reuse of the decoder's buffer; only the decode itself must finish
// before that reuse. This is the server-side decode for pooled frame
// buffers.
func DecodeValueRef(d *Dec) (types.Value, error) {
	return decodeValue(d, true)
}

// decodeValue reads byte fields through BlobRef when ref is set, else
// Blob: a flag, since d passed to a method value would escape.
func decodeValue(d *Dec, ref bool) (types.Value, error) {
	blob := func() []byte {
		if ref {
			return d.BlobRef()
		}
		return d.Blob()
	}
	t := types.Type(d.U8())
	var v types.Value
	switch t {
	case types.TypeString:
		v = types.String(d.Str())
	case types.TypeInt:
		v = types.Int(d.I64())
	case types.TypeFloat:
		v = types.Float(math.Float64frombits(d.U64()))
	case types.TypeBool:
		v = types.Bool(d.Bool())
	case types.TypeTuple:
		// Always the copying accessor: DecodeTuple aliases its input,
		// so a ref-decoded Tuple would outlive the pooled frame buffer.
		raw := d.Blob()
		if d.err == nil {
			tup, err := types.DecodeTuple(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCodec, err)
			}
			v = tup
		}
	case types.TypeBlob:
		v = types.NewBlob(blob())
	case types.TypeList:
		n := d.Count(4)
		l := types.NewList()
		for i := 0; i < n && d.err == nil; i++ {
			if err := l.Append(blob()); err != nil {
				return nil, err
			}
		}
		v = l
	case types.TypeMap:
		n := d.Count(8)
		m := types.NewMap()
		for i := 0; i < n && d.err == nil; i++ {
			k, val := blob(), blob()
			if d.err == nil {
				if err := m.Set(k, val); err != nil {
					return nil, err
				}
			}
		}
		v = m
	case types.TypeSet:
		n := d.Count(4)
		s := types.NewSet()
		for i := 0; i < n && d.err == nil; i++ {
			if err := s.Add(blob()); err != nil {
				return nil, err
			}
		}
		v = s
	default:
		d.fail(fmt.Sprintf("unknown value type %d", uint8(t)))
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// --- FObjects ---------------------------------------------------------

// EncodeFObject ships a version as its canonical meta-chunk payload.
// The uid travels implicitly: it IS the digest of these bytes, so the
// receiver recomputes it — a server cannot mis-attribute a version
// without the client noticing (the tamper evidence of §3.2 extends
// across the wire for free).
func EncodeFObject(e *Enc, o *types.FObject) {
	e.Blob(types.MarshalFObject(o))
}

// DecodeFObject parses a version and recomputes its uid.
func DecodeFObject(d *Dec) (*types.FObject, error) {
	raw := d.Blob()
	if d.err != nil {
		return nil, d.err
	}
	o, err := types.UnmarshalFObject(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return o, nil
}

// EncodeFObjects serializes a version list (a Track answer).
func EncodeFObjects(e *Enc, objs []*types.FObject) {
	e.U32(uint32(len(objs)))
	for _, o := range objs {
		EncodeFObject(e, o)
	}
}

// DecodeFObjects parses a version list, recomputing each uid.
func DecodeFObjects(d *Dec) ([]*types.FObject, error) {
	n := d.Count(4)
	out := make([]*types.FObject, 0, n)
	for i := 0; i < n; i++ {
		o, err := DecodeFObject(d)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// --- conflicts, diffs, branch lists, stats ---------------------------

// EncodeConflicts serializes a merge conflict list.
func EncodeConflicts(e *Enc, cs []merge.Conflict) {
	e.U32(uint32(len(cs)))
	for _, c := range cs {
		e.Blob(c.Key)
		e.Blob(c.Base)
		e.Blob(c.A)
		e.Blob(c.B)
		e.Str(c.Message)
	}
}

// DecodeConflicts parses a merge conflict list.
func DecodeConflicts(d *Dec) []merge.Conflict {
	n := d.Count(5 * 4)
	var out []merge.Conflict
	for i := 0; i < n && d.err == nil; i++ {
		c := merge.Conflict{Key: d.Blob(), Base: d.Blob(), A: d.Blob(), B: d.Blob(), Message: d.Str()}
		if d.err == nil {
			out = append(out, c)
		}
	}
	return out
}

// Diff kind tags.
const (
	diffPrimitive uint8 = iota
	diffSorted
	diffUnsorted
)

// EncodeDiff serializes a version comparison.
func EncodeDiff(e *Enc, df *core.Diff) {
	e.U8(uint8(df.Type))
	switch {
	case df.Sorted != nil:
		e.U8(diffSorted)
		for _, kvs := range [][]postree.KV{df.Sorted.Added, df.Sorted.Removed, df.Sorted.Modified} {
			e.U32(uint32(len(kvs)))
			for _, kv := range kvs {
				e.Blob(kv.Key)
				e.Blob(kv.Value)
			}
		}
		e.U32(uint32(df.Sorted.SharedLeaves))
		e.U32(uint32(df.Sorted.TotalLeaves))
	case df.Unsorted != nil:
		e.U8(diffUnsorted)
		e.U32(uint32(df.Unsorted.SharedLeaves))
		e.U32(uint32(df.Unsorted.OnlyA))
		e.U32(uint32(df.Unsorted.OnlyB))
		e.U64(df.Unsorted.BytesA)
		e.U64(df.Unsorted.BytesB)
	default:
		e.U8(diffPrimitive)
		e.Bool(df.PrimitiveEqual)
	}
}

// DecodeDiff parses a version comparison.
func DecodeDiff(d *Dec) (*core.Diff, error) {
	df := &core.Diff{Type: types.Type(d.U8())}
	switch kind := d.U8(); kind {
	case diffSorted:
		sd := &postree.SortedDiff{}
		for _, dst := range []*[]postree.KV{&sd.Added, &sd.Removed, &sd.Modified} {
			n := d.Count(8)
			for i := 0; i < n && d.err == nil; i++ {
				kv := postree.KV{Key: d.Blob(), Value: d.Blob()}
				if d.err == nil {
					*dst = append(*dst, kv)
				}
			}
		}
		sd.SharedLeaves = int(d.U32())
		sd.TotalLeaves = int(d.U32())
		df.Sorted = sd
	case diffUnsorted:
		ud := &postree.UnsortedDiff{}
		ud.SharedLeaves = int(d.U32())
		ud.OnlyA = int(d.U32())
		ud.OnlyB = int(d.U32())
		ud.BytesA = d.U64()
		ud.BytesB = d.U64()
		df.Unsorted = ud
	case diffPrimitive:
		df.PrimitiveEqual = d.Bool()
	default:
		d.fail(fmt.Sprintf("unknown diff kind %d", kind))
	}
	if d.err != nil {
		return nil, d.err
	}
	return df, nil
}

// EncodeBranchList serializes a key's branch table: its tagged
// branches, then its untagged heads.
func EncodeBranchList(e *Enc, tagged []branch.TaggedBranch, untagged []types.UID) {
	e.U32(uint32(len(tagged)))
	for _, tb := range tagged {
		e.Str(tb.Name)
		e.UID(tb.Head)
	}
	EncodeUIDs(e, untagged)
}

// DecodeBranchList parses a branch table.
func DecodeBranchList(d *Dec) ([]branch.TaggedBranch, []types.UID) {
	n := d.Count(4 + chunk.IDSize)
	var tagged []branch.TaggedBranch
	for i := 0; i < n && d.err == nil; i++ {
		tb := branch.TaggedBranch{Name: d.Str(), Head: d.UID()}
		if d.err == nil {
			tagged = append(tagged, tb)
		}
	}
	return tagged, DecodeUIDs(d)
}

// EncodeStrings serializes a string list (a key listing).
func EncodeStrings(e *Enc, ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// DecodeStrings parses a string list.
func DecodeStrings(d *Dec) []string {
	n := d.Count(4)
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := d.Str()
		if d.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// EncodeUIDs serializes a uid list.
func EncodeUIDs(e *Enc, uids []types.UID) {
	e.U32(uint32(len(uids)))
	for _, uid := range uids {
		e.UID(uid)
	}
}

// DecodeUIDs parses a uid list.
func DecodeUIDs(d *Dec) []types.UID {
	n := d.Count(chunk.IDSize)
	var out []types.UID
	for i := 0; i < n && d.err == nil; i++ {
		uid := d.UID()
		if d.err == nil {
			out = append(out, uid)
		}
	}
	return out
}

// EncodeGCStats serializes a collection report.
func EncodeGCStats(e *Enc, s store.GCStats) {
	e.I64(int64(s.Marked))
	e.I64(int64(s.Reclaimed))
	e.I64(s.ReclaimedBytes)
	e.I64(int64(s.Relocated))
	e.I64(s.RelocatedBytes)
	e.I64(int64(s.SegmentsCompacted))
	e.I64(int64(s.SegmentsKept))
}

// DecodeGCStats parses a collection report.
func DecodeGCStats(d *Dec) store.GCStats {
	return store.GCStats{
		Marked:            int(d.I64()),
		Reclaimed:         int(d.I64()),
		ReclaimedBytes:    d.I64(),
		Relocated:         int(d.I64()),
		RelocatedBytes:    d.I64(),
		SegmentsCompacted: int(d.I64()),
		SegmentsKept:      int(d.I64()),
	}
}

// --- call options -----------------------------------------------------

// CallOptions is the wire form of a call's resolved option set — the
// per-request state that must cross the network for the server to
// reconstruct the caller's intent, including the user identity the
// ACL checks run against.
type CallOptions struct {
	User      string
	Branch    string
	BranchSet bool
	Bases     []types.UID
	Guard     *types.UID
	Meta      []byte
	Resolver  uint8 // ResolverNone or a builtin code
}

// Resolver codes: merge resolvers are functions and cannot cross the
// wire, but the paper's built-ins (§4.5.2) are known to both ends by
// code. Custom resolvers are rejected client-side before any bytes
// move.
const (
	ResolverNone uint8 = iota
	ResolverChooseA
	ResolverChooseB
	ResolverAppend
	ResolverAggregate
)

// ResolverCode maps a resolver function to its wire code; ok is false
// for custom resolvers, which cannot be shipped.
func ResolverCode(r merge.Resolver) (uint8, bool) {
	if r == nil {
		return ResolverNone, true
	}
	p := reflect.ValueOf(r).Pointer()
	for code, builtin := range builtinResolvers {
		if builtin != nil && reflect.ValueOf(builtin).Pointer() == p {
			return uint8(code), true
		}
	}
	return ResolverNone, false
}

// ResolverFromCode returns the built-in resolver for a wire code (nil
// for ResolverNone and unknown codes).
func ResolverFromCode(code uint8) merge.Resolver {
	if int(code) < len(builtinResolvers) {
		return builtinResolvers[code]
	}
	return nil
}

var builtinResolvers = []merge.Resolver{
	ResolverNone:      nil,
	ResolverChooseA:   merge.ChooseA,
	ResolverChooseB:   merge.ChooseB,
	ResolverAppend:    merge.Append,
	ResolverAggregate: merge.Aggregate,
}

// EncodeCallOptions serializes a call's option set.
func EncodeCallOptions(e *Enc, o CallOptions) {
	e.Str(o.User)
	e.Bool(o.BranchSet)
	e.Str(o.Branch)
	EncodeUIDs(e, o.Bases)
	e.Bool(o.Guard != nil)
	if o.Guard != nil {
		e.UID(*o.Guard)
	}
	e.Blob(o.Meta)
	e.U8(o.Resolver)
}

// DecodeCallOptions parses a call's option set. last, when given, is
// the user an earlier request on the same connection decoded: a request
// naming the same user gets that string back rather than a fresh copy,
// so a connection that keeps to one user decodes it without allocating.
func DecodeCallOptions(d *Dec, last ...string) CallOptions {
	o := CallOptions{
		User:      d.Str(last...),
		BranchSet: d.Bool(),
		Branch:    d.Str(),
		Bases:     DecodeUIDs(d),
	}
	if d.Bool() {
		g := d.UID()
		o.Guard = &g
	}
	o.Meta = d.Blob()
	o.Resolver = d.U8()
	return o
}
