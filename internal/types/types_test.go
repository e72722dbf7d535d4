package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

func testEnv() (store.Store, postree.Config) {
	return store.NewMemStore(), postree.Config{LeafQ: 8, IndexR: 3}
}

func TestPrimitiveRoundTrips(t *testing.T) {
	s, cfg := testEnv()
	cases := []Value{
		String("hello"),
		String(""),
		Int(-42),
		Int(1 << 62),
		Float(3.14159),
		Bool(true),
		Bool(false),
		Tuple{[]byte("a"), []byte(""), []byte("ccc")},
	}
	for _, v := range cases {
		o, err := Save(s, cfg, []byte("k"), v, nil, nil)
		if err != nil {
			t.Fatalf("%v: %v", v.Type(), err)
		}
		loaded, err := LoadFObject(s, o.UID())
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Value(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(v, got) {
			t.Fatalf("%v: round trip mismatch: %#v vs %#v", v.Type(), v, got)
		}
	}
}

func TestUIDCommitsToHistory(t *testing.T) {
	s, cfg := testEnv()
	v1, err := Save(s, cfg, []byte("k"), String("a"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2a, err := Save(s, cfg, []byte("k"), String("b"), []*FObject{v1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same value with a different history must get a different uid.
	v0, err := Save(s, cfg, []byte("k"), String("zero"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2b, err := Save(s, cfg, []byte("k"), String("b"), []*FObject{v0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2a.UID() == v2b.UID() {
		t.Fatal("uid does not commit to derivation history")
	}
	// The same value with the same history must be identical
	// (logically equivalent FObjects, §3.2).
	v2c, err := Save(s, cfg, []byte("k"), String("b"), []*FObject{v1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2a.UID() != v2c.UID() {
		t.Fatal("equivalent versions got different uids")
	}
	if v2a.Depth != 1 || v1.Depth != 0 {
		t.Fatalf("depths: v1=%d v2=%d", v1.Depth, v2a.Depth)
	}
}

func TestVerifyHistory(t *testing.T) {
	s, cfg := testEnv()
	cur, err := Save(s, cfg, []byte("k"), String("v0"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		cur, err = Save(s, cfg, []byte("k"), String("v"+string(rune('0'+i))), []*FObject{cur}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	n, err := cur.VerifyHistory(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("verified %d versions, want 10", n)
	}
	// A history whose chunks are missing fails verification.
	orphan, _ := Save(store.NewMemStore(), cfg, []byte("k"), String("x"), []*FObject{cur}, nil)
	if _, err := orphan.VerifyHistory(store.NewMemStore()); err == nil {
		t.Fatal("VerifyHistory passed with missing ancestors")
	}
}

func TestBlobStagedAndAttached(t *testing.T) {
	s, cfg := testEnv()
	b := NewBlob([]byte("0123456789"))
	if err := b.Remove(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _ := b.Bytes()
	if string(got) != "3456789abc" {
		t.Fatalf("staged edits: %q", got)
	}
	o, err := Save(s, cfg, []byte("k"), b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFObject(s, o.UID())
	if err != nil {
		t.Fatal(err)
	}
	v, err := loaded.Value(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab := v.(*Blob)
	if ab.Tree() == nil {
		t.Fatal("loaded blob not attached")
	}
	if err := ab.Splice(0, 3, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	got, _ = ab.Bytes()
	if string(got) != "XYZ6789abc" {
		t.Fatalf("attached edits: %q", got)
	}
	// ReadAt on attached handle.
	p := make([]byte, 4)
	if n, err := ab.ReadAt(p, 3); err != nil || n != 4 || string(p) != "6789" {
		t.Fatalf("ReadAt: %q %d %v", p, n, err)
	}
}

func TestMapStagedAndAttached(t *testing.T) {
	s, cfg := testEnv()
	m := NewMap()
	m.Set([]byte("b"), []byte("2"))
	m.Set([]byte("a"), []byte("1"))
	m.Delete([]byte("b"))
	if m.Len() != 1 {
		t.Fatalf("staged len %d", m.Len())
	}
	o, err := Save(s, cfg, []byte("k"), m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := LoadFObject(s, o.UID())
	v, err := loaded.Value(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	am := v.(*Map)
	if got, ok, _ := am.Get([]byte("a")); !ok || string(got) != "1" {
		t.Fatalf("attached get: %q %v", got, ok)
	}
	am.Set([]byte("c"), []byte("3"))
	var keys []string
	am.Iter(func(k, v []byte) bool { keys = append(keys, string(k)); return true })
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "c" {
		t.Fatalf("iter keys: %v", keys)
	}
}

func TestListAndSetHandles(t *testing.T) {
	s, cfg := testEnv()
	l := NewList([]byte("x"), []byte("y"))
	l.Append([]byte("z"))
	o, err := Save(s, cfg, []byte("k"), l, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := LoadFObject(s, o.UID())
	v, _ := loaded.Value(s, cfg)
	al := v.(*List)
	if al.Len() != 3 {
		t.Fatalf("list len %d", al.Len())
	}
	if e, _ := al.Get(1); string(e) != "y" {
		t.Fatalf("list get: %q", e)
	}
	al.Splice(1, 1, []byte("Y"))
	if e, _ := al.Get(1); string(e) != "Y" {
		t.Fatalf("after splice: %q", e)
	}

	set := NewSet([]byte("p"), []byte("q"))
	o2, err := Save(s, cfg, []byte("k2"), set, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded2, _ := LoadFObject(s, o2.UID())
	v2, _ := loaded2.Value(s, cfg)
	as := v2.(*Set)
	if ok, _ := as.Has([]byte("p")); !ok {
		t.Fatal("set lost element")
	}
	as.Add([]byte("r"))
	as.Remove([]byte("p"))
	if as.Len() != 2 {
		t.Fatalf("set len %d", as.Len())
	}
}

func TestContextField(t *testing.T) {
	s, cfg := testEnv()
	ctx := []byte("commit message: fix everything")
	o, err := Save(s, cfg, []byte("k"), String("v"), nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := LoadFObject(s, o.UID())
	if !bytes.Equal(loaded.Context, ctx) {
		t.Fatalf("context lost: %q", loaded.Context)
	}
}

func TestTupleOps(t *testing.T) {
	tup := Tuple{[]byte("a"), []byte("b")}
	tup2 := tup.Append([]byte("c"))
	if len(tup2) != 3 || len(tup) != 2 {
		t.Fatal("Append not functional")
	}
	tup3, err := tup.Insert(1, []byte("x"))
	if err != nil || string(tup3[1]) != "x" || len(tup3) != 3 {
		t.Fatalf("Insert: %v %v", tup3, err)
	}
	if _, err := tup.Insert(5, nil); err == nil {
		t.Fatal("Insert out of range succeeded")
	}
	enc := EncodeTuple(tup3)
	dec, err := DecodeTuple(enc)
	if err != nil || len(dec) != 3 || string(dec[1]) != "x" {
		t.Fatalf("tuple round trip: %v %v", dec, err)
	}
}

// TestTupleReadInPlace: DecodeTuple, TupleField and a TupleReader walk
// agree on well-formed tuples, and a field count the bytes cannot hold
// is an error before anything is sized by it — ff ff ff 7f used to
// take the process down with an out-of-memory abort.
func TestTupleReadInPlace(t *testing.T) {
	tup := Tuple{[]byte("pk-7"), {}, []byte("a longer field"), {0}}
	enc := EncodeTuple(tup)
	r, err := ReadTuple(enc)
	if err != nil || r.Len() != len(tup) {
		t.Fatalf("ReadTuple: %d fields, %v", r.Len(), err)
	}
	for i, want := range tup {
		walked, err := r.Next()
		if err != nil || !bytes.Equal(walked, want) {
			t.Fatalf("Next %d = %q, %v; want %q", i, walked, err, want)
		}
		got, err := TupleField(enc, i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("TupleField(%d) = %q, %v; want %q", i, got, err, want)
		}
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("Next past the last field succeeded")
	}
	for _, i := range []int{-1, len(tup)} {
		if _, err := TupleField(enc, i); err == nil {
			t.Fatalf("TupleField(%d) of a %d-field tuple succeeded", i, len(tup))
		}
	}
	// TupleField checks what it walks, so each case names the field
	// whose walk meets the damage.
	for _, bad := range []struct {
		data  []byte
		field int
	}{
		{[]byte{0xff, 0xff, 0xff, 0x7f}, 0},      // 2^31-1 fields in no bytes
		{[]byte{2, 0, 0, 0, 0, 0, 0, 0}, 0},      // two fields, room for one length
		{[]byte{1, 0, 0, 0, 9, 0, 0, 0, 'x'}, 0}, // a field longer than the payload
		{enc[:len(enc)-1], len(tup) - 1},         // cut short
		{[]byte{1, 0, 0}, 0},
		{nil, 0},
	} {
		if tup, err := DecodeTuple(bad.data); err == nil {
			t.Fatalf("DecodeTuple(%x) = %v, want an error", bad.data, tup)
		}
		if f, err := TupleField(bad.data, bad.field); err == nil {
			t.Fatalf("TupleField(%x, %d) = %q, want an error", bad.data, bad.field, f)
		}
	}
	if v, err := decodePrimitive(TypeTuple, []byte{0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatalf("a meta chunk's tuple with a hostile count decoded to %v", v)
	}
}

// TestListGetPastLyingCount: a List whose meta chunk claims more
// elements than its two-level tree holds answers a position past them
// with a corruption error, not with bytes of the index node read as if
// they were a leaf.
func TestListGetPastLyingCount(t *testing.T) {
	s, cfg := testEnv()
	var node []byte
	for _, leaf := range [][]byte{
		append(postree.EncodeListElem([]byte("a")), postree.EncodeListElem([]byte("b"))...),
		postree.EncodeListElem([]byte("c")),
	} {
		c := chunk.New(chunk.TypeList, leaf)
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		id := c.ID()
		// An unsorted index entry: empty key, element count, child cid.
		node = binary.LittleEndian.AppendUint32(node, 0)
		node = binary.LittleEndian.AppendUint64(node, uint64(len(leaf)/5))
		node = append(node, id[:]...)
	}
	root := chunk.New(chunk.TypeUIndex, node)
	if _, err := s.Put(root); err != nil {
		t.Fatal(err)
	}
	l := AttachList(postree.Attach(s, cfg, postree.KindList, root.ID(), 10, 2))
	if e, err := l.Get(2); err != nil || string(e) != "c" {
		t.Fatalf("Get(2) within the tree = %q, %v", e, err)
	}
	if e, err := l.Get(5); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Get(5) past what the tree holds = %q, %v; want a corruption error", e, err)
	}
}

func TestStringOps(t *testing.T) {
	s := String("hello")
	if s.Append(" world") != "hello world" {
		t.Fatal("Append")
	}
	s2, err := s.Insert(5, "!")
	if err != nil || s2 != "hello!" {
		t.Fatalf("Insert: %q %v", s2, err)
	}
	if _, err := s.Insert(99, "x"); err == nil {
		t.Fatal("Insert out of range succeeded")
	}
}

func TestNumericOps(t *testing.T) {
	if Int(2).Add(3) != 5 || Int(2).Multiply(3) != 6 {
		t.Fatal("Int ops")
	}
	if Float(2).Add(0.5) != 2.5 || Float(2).Multiply(3) != 6 {
		t.Fatal("Float ops")
	}
}

func TestQuickFObjectRoundTrip(t *testing.T) {
	s, cfg := testEnv()
	f := func(key, val, ctx []byte) bool {
		o, err := Save(s, cfg, key, String(val), nil, ctx)
		if err != nil {
			return false
		}
		loaded, err := LoadFObject(s, o.UID())
		if err != nil {
			return false
		}
		return bytes.Equal(loaded.Key, key) &&
			bytes.Equal(loaded.Data, val) &&
			bytes.Equal(loaded.Context, ctx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
