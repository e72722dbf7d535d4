package wire

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"forkbase/internal/branch"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/merge"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xab}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, uint64(i)+7, OpGet, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		reqID, op, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if reqID != uint64(i)+7 || op != OpGet || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: id=%d op=%d len=%d", i, reqID, op, len(got))
		}
	}
}

func TestFrameViolations(t *testing.T) {
	// Torn frame: length promises more than the stream holds.
	frame := AppendFrame(nil, 1, OpGet, []byte("payload"))
	_, _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), 0)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("torn frame: %v", err)
	}
	// Flipped payload bit: crc catches it.
	bad := append([]byte(nil), frame...)
	bad[15] ^= 0x01
	if _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrFrame) {
		t.Fatalf("crc: %v", err)
	}
	// Oversized claimed length.
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, _, _, err := ReadFrame(bytes.NewReader(huge), 64); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized: %v", err)
	}
	// Length below the fixed overhead.
	tiny := []byte{3, 0, 0, 0, 1, 2, 3}
	if _, _, _, err := ReadFrame(bytes.NewReader(tiny), 0); !errors.Is(err, ErrFrame) {
		t.Fatalf("undersized: %v", err)
	}
	// Clean EOF between frames is NOT a framing violation.
	if _, _, _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("eof: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	s := store.NewMemStore()
	cfg := postree.DefaultConfig()
	big := bytes.Repeat([]byte("forkbase wire "), 4096)

	attached := func(v types.Value) types.Value {
		// Round a value through a store so the encoder exercises the
		// attached (tree-backed) path, not just staged handles.
		o, err := types.Save(s, cfg, []byte("k"), v, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		av, err := o.Value(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return av
	}
	m := types.NewMap()
	for i := 0; i < 500; i++ {
		m.Set([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	l := types.NewList([]byte("a"), []byte("bb"), nil, []byte("dddd"))
	set := types.NewSet([]byte("x"), []byte("y"), []byte("z"))

	cases := []types.Value{
		types.String("plain"),
		types.Int(-42),
		types.Float(3.25),
		types.Bool(true),
		types.Tuple{[]byte("f1"), nil, []byte("f3")},
		types.NewBlob(big),
		attached(types.NewBlob(big)),
		m,
		attached(m),
		l,
		attached(l),
		set,
		attached(set),
	}
	for i, v := range cases {
		var e Enc
		if err := EncodeValue(&e, v); err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		d := NewDec(e.Bytes())
		got, err := DecodeValue(d)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		// Compare by content through a fresh persist: equal content
		// must chunk to the same root (the Merkle property).
		oa, err := types.Save(store.NewMemStore(), cfg, []byte("k"), v, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := types.Save(store.NewMemStore(), cfg, []byte("k"), got, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if oa.UID() != ob.UID() {
			t.Fatalf("case %d (%v): content changed across the wire", i, v.Type())
		}
	}
}

func TestFObjectRoundTrip(t *testing.T) {
	s := store.NewMemStore()
	cfg := postree.DefaultConfig()
	base, err := types.Save(s, cfg, []byte("k"), types.String("v1"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := types.Save(s, cfg, []byte("k"), types.String("v2"), []*types.FObject{base}, []byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	var e Enc
	EncodeFObject(&e, o)
	got, err := DecodeFObject(NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.UID() != o.UID() || got.Depth != o.Depth || string(got.Context) != "meta" ||
		len(got.Bases) != 1 || got.Bases[0] != base.UID() {
		t.Fatalf("fobject mangled: %+v", got)
	}
	// Tamper evidence survives transit: flip a content byte and the
	// recomputed uid diverges — the receiver can always tell.
	raw := types.MarshalFObject(o)
	raw[len(raw)-1] ^= 0xff
	forged, err := types.UnmarshalFObject(raw)
	if err == nil && forged.UID() == o.UID() {
		t.Fatal("forged payload kept its uid")
	}
}

// TestListCodecsRoundTrip: the response lists of Track, ListKeys and
// ListBranches come back as they went, empty ones included, and a
// list cut short fails the decode instead of coming back shorter.
func TestListCodecsRoundTrip(t *testing.T) {
	s := store.NewMemStore()
	cfg := postree.DefaultConfig()
	base, err := types.Save(s, cfg, []byte("k"), types.String("v1"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	head, err := types.Save(s, cfg, []byte("k"), types.String("v2"), []*types.FObject{base}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, hist := range [][]*types.FObject{{head, base}, {}} {
		var e Enc
		EncodeFObjects(&e, hist)
		got, err := DecodeFObjects(NewDec(e.Bytes()))
		if err != nil || len(got) != len(hist) {
			t.Fatalf("versions: %d of %d, %v", len(got), len(hist), err)
		}
		for i := range hist {
			if got[i].UID() != hist[i].UID() {
				t.Fatalf("version %d: %s, want %s", i, got[i].UID().Short(), hist[i].UID().Short())
			}
		}
		if len(hist) > 0 {
			if _, err := DecodeFObjects(NewDec(e.Bytes()[:len(e.Bytes())-1])); err == nil {
				t.Fatal("a cut version list decoded")
			}
		}
	}
	for _, keys := range [][]string{{"a", "", "long key"}, {}} {
		var e Enc
		EncodeStrings(&e, keys)
		d := NewDec(e.Bytes())
		if got := DecodeStrings(d); d.Err() != nil || !reflect.DeepEqual(got, keys) {
			t.Fatalf("strings: %q, %v; want %q", got, d.Err(), keys)
		}
	}
	tagged := []branch.TaggedBranch{{Name: "master", Head: head.UID()}, {Name: "dev", Head: base.UID()}}
	for _, untagged := range [][]types.UID{{base.UID(), head.UID()}, nil} {
		var e Enc
		EncodeBranchList(&e, tagged, untagged)
		d := NewDec(e.Bytes())
		gotT, gotU := DecodeBranchList(d)
		if d.Err() != nil || !reflect.DeepEqual(gotT, tagged) || !reflect.DeepEqual(gotU, untagged) {
			t.Fatalf("branch list: %v %v, %v; want %v %v", gotT, gotU, d.Err(), tagged, untagged)
		}
		d = NewDec(e.Bytes()[:len(e.Bytes())-1])
		if DecodeBranchList(d); d.Err() == nil {
			t.Fatal("a cut branch list decoded")
		}
	}
}

// roundTripError sends err through the error codec as a server would.
func roundTripError(t *testing.T, err error) ErrorPayload {
	t.Helper()
	var e Enc
	EncodeError(&e, err, nil, types.UID{})
	ep, derr := DecodeError(NewDec(e.Bytes()))
	if derr != nil {
		t.Fatal(derr)
	}
	return ep
}

func TestErrorRoundTrip(t *testing.T) {
	// Every row of the error table: classified as its own code and
	// decoded typed, whatever wraps it.
	for _, r := range errorTable {
		if r.sentinel == nil {
			continue
		}
		err := fmt.Errorf("server: %w", r.sentinel)
		if got := ErrorCode(err); got != r.code {
			t.Fatalf("%v classified as %s, want %s", err, CodeName(got), r.name)
		}
		if ep := roundTripError(t, err); !errors.Is(ep.Err, r.sentinel) || ep.Err.Error() != err.Error() {
			t.Fatalf("%s: decoded %v does not satisfy errors.Is(%v)", r.name, ep.Err, r.sentinel)
		}
	}
	// Classification order is wire behaviour: an error matching two
	// rows travels as the earlier one.
	wantOrder := []uint8{
		CodeGuardFailed, CodeBranchExists, CodeBranchNotFound, CodeKeyNotFound,
		CodeConflict, CodeAccessDenied, CodeCorrupt, CodeSweepInProgress,
		CodeNotCollectable, CodeBadOptions, CodeTypeMismatch,
		CodeCanceled, CodeDeadline, CodeShutdown, CodeUnsupported, CodeProto,
		CodeDuplicateRequest, CodeNotFound,
	}
	var order []uint8
	for _, r := range errorTable {
		if r.sentinel != nil {
			order = append(order, r.code)
		}
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("classification order changed: %v, want %v", order, wantOrder)
	}
	for _, c := range []struct {
		err  error
		want uint8
	}{
		{fmt.Errorf("%w: %w", branch.ErrBranchNotFound, branch.ErrGuardFailed), CodeGuardFailed},
		{fmt.Errorf("%w: %w", store.ErrNotFound, store.ErrCorrupt), CodeCorrupt},
		{fmt.Errorf("%w: %w", store.ErrNotCollectable, store.ErrSweepInProgress), CodeSweepInProgress},
	} {
		if got := ErrorCode(c.err); got != c.want {
			t.Fatalf("%v classified as %s, want %s", c.err, CodeName(got), CodeName(c.want))
		}
	}
	// A generic error stays opaque but keeps its message.
	if ep := roundTripError(t, errors.New("something odd")); ep.Err.Error() != "something odd" || errors.Unwrap(ep.Err) != nil {
		t.Fatalf("generic error: %v", ep.Err)
	}
	// Conflicts and the uid ride along.
	conflicts := []merge.Conflict{{Key: []byte("k"), A: []byte("a"), B: nil, Message: "m"}}
	uid := types.UID{1, 2, 3}
	var e Enc
	EncodeError(&e, merge.ErrConflict, conflicts, uid)
	ep, err := DecodeError(NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Conflicts) != 1 || string(ep.Conflicts[0].Key) != "k" ||
		ep.Conflicts[0].B != nil || ep.UID != uid {
		t.Fatalf("conflict payload mangled: %+v", ep)
	}
}

// TestCoreSentinelsHaveCodes reads the exported Err* variables out of
// internal/core's sources: each must be in the map below and cross the
// wire typed. A new engine sentinel fails here until it has a row in
// the error table (and an entry in the map).
func TestCoreSentinelsHaveCodes(t *testing.T) {
	sentinels := map[string]error{
		"ErrKeyNotFound":  core.ErrKeyNotFound,
		"ErrTypeMismatch": core.ErrTypeMismatch,
		"ErrBadOptions":   core.ErrBadOptions,
	}
	entries, err := os.ReadDir("../core")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".go") || strings.HasSuffix(ent.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join("../core", ent.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.IsExported() && strings.HasPrefix(id.Name, "Err") {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no Err* variables in internal/core")
	}
	for _, name := range names {
		sentinel, ok := sentinels[name]
		if !ok {
			t.Errorf("core.%s has no wire error code: add a row to the error table and an entry here", name)
			continue
		}
		err := fmt.Errorf("engine: %w", sentinel)
		if code := ErrorCode(err); code == CodeGeneric {
			t.Errorf("core.%s travels as %s", name, CodeName(code))
		}
		if ep := roundTripError(t, err); !errors.Is(ep.Err, sentinel) {
			t.Errorf("core.%s decoded as %v, not typed", name, ep.Err)
		}
	}
}

func TestCallOptionsRoundTrip(t *testing.T) {
	guard := types.UID{9}
	in := CallOptions{
		User:      "alice",
		Branch:    "dev",
		BranchSet: true,
		Bases:     []types.UID{{1}, {2}},
		Guard:     &guard,
		Meta:      []byte("msg"),
		Resolver:  ResolverAggregate,
	}
	var e Enc
	EncodeCallOptions(&e, in)
	got := DecodeCallOptions(NewDec(e.Bytes()))
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("opts: %+v != %+v", got, in)
	}
	// Nil-ness of meta survives (it selects whether WithMeta applies).
	var e2 Enc
	EncodeCallOptions(&e2, CallOptions{})
	if got := DecodeCallOptions(NewDec(e2.Bytes())); got.Meta != nil {
		t.Fatalf("nil meta became %v", got.Meta)
	}
}

func TestResolverCodes(t *testing.T) {
	for code, r := range map[uint8]merge.Resolver{
		ResolverChooseA:   merge.ChooseA,
		ResolverChooseB:   merge.ChooseB,
		ResolverAppend:    merge.Append,
		ResolverAggregate: merge.Aggregate,
	} {
		got, ok := ResolverCode(r)
		if !ok || got != code {
			t.Fatalf("resolver code: %d != %d (%v)", got, code, ok)
		}
		if ResolverFromCode(code) == nil {
			t.Fatalf("code %d has no resolver", code)
		}
	}
	if _, ok := ResolverCode(func(merge.Conflict) ([]byte, bool) { return nil, false }); ok {
		t.Fatal("custom resolver got a code")
	}
	if c, ok := ResolverCode(nil); !ok || c != ResolverNone {
		t.Fatal("nil resolver")
	}
}

// decodeAnything exercises every decoder against one input; used by
// the garbage tests and the fuzz target. The only acceptable outcomes
// are success or a typed error — never a panic.
func decodeAnything(b []byte) {
	DecodeValue(NewDec(b))
	DecodeFObject(NewDec(b))
	DecodeError(NewDec(b))
	DecodeCallOptions(NewDec(b))
	DecodeDiff(NewDec(b))
	DecodeConflicts(NewDec(b))
	DecodeUIDs(NewDec(b))
	DecodeFObjects(NewDec(b))
	DecodeStrings(NewDec(b))
	DecodeBranchList(NewDec(b))
	DecodeGCStats(NewDec(b))
	DecodeBitmap(NewDec(b), 64)
	DecodeChunkUpload(NewDec(b))
	decodeWantRequest(b)
	ReadFrame(bytes.NewReader(b), 1<<20)
}

// decodeWantRequest reads an OpChunkWant request the way the server
// does: options, key, id list, then the required flags byte.
func decodeWantRequest(b []byte) (ids []chunk.ID, flags uint8, err error) {
	d := NewDec(b)
	DecodeCallOptions(d)
	d.Str()
	ids = DecodeUIDs(d)
	flags = d.U8()
	return ids, flags, d.Err()
}

// wantRequest encodes an OpChunkWant request body; flags is appended
// as given, so an empty slice is the flagless request of a peer that
// predates the byte.
func wantRequest(ids []chunk.ID, flags ...uint8) []byte {
	var e Enc
	EncodeCallOptions(&e, CallOptions{User: "u"})
	e.Str("doc")
	EncodeUIDs(&e, ids)
	for _, f := range flags {
		e.U8(f)
	}
	return e.Bytes()
}

func TestChunkSyncCodecRoundTrip(t *testing.T) {
	// Bitmap: every width around the byte boundaries.
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = i%3 == 0
		}
		var e Enc
		EncodeBitmap(&e, bits)
		got := DecodeBitmap(NewDec(e.Bytes()), n)
		if !reflect.DeepEqual(append([]bool{}, bits...), append([]bool{}, got...)) {
			t.Fatalf("bitmap width %d: %v != %v", n, got, bits)
		}
		// A claimed width that disagrees with the payload is an error,
		// not a misread.
		if n > 0 {
			d := NewDec(e.Bytes())
			DecodeBitmap(d, n+16)
			if d.Err() == nil {
				t.Fatalf("bitmap width %d decoded as %d", n, n+16)
			}
		}
	}

	chunks := []*chunk.Chunk{
		chunk.New(chunk.TypeBlob, []byte("alpha")),
		chunk.New(chunk.TypeUIndex, bytes.Repeat([]byte{9}, 500)),
	}
	var e Enc
	EncodeChunkUpload(&e, chunks)
	frames := DecodeChunkUpload(NewDec(e.Bytes()))
	if len(frames) != len(chunks) {
		t.Fatalf("upload: %d frames", len(frames))
	}
	for i, f := range frames {
		if f.ID != chunks[i].ID() || !bytes.Equal(f.Bytes, chunks[i].Bytes()) {
			t.Fatalf("upload frame %d corrupted", i)
		}
	}

	// A Want request carries its flags byte after the ids; without it
	// the request is a typed decode error, never a flags value of 0.
	want := []chunk.ID{chunks[0].ID(), chunks[1].ID()}
	ids, flags, err := decodeWantRequest(wantRequest(want, WantFlagDeep))
	if err != nil || flags != WantFlagDeep || !reflect.DeepEqual(ids, want) {
		t.Fatalf("want request mangled: ids %v flags %#x err %v", ids, flags, err)
	}
	if _, _, err := decodeWantRequest(wantRequest(want)); !errors.Is(err, ErrCodec) {
		t.Fatalf("flagless want request decoded: err = %v, want ErrCodec", err)
	}
}

func TestDecodersSurviveGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(256)
		b := make([]byte, n)
		rng.Read(b)
		decodeAnything(b)
	}
	// Adversarial shapes: truncations of a VALID encoding are the
	// garbage most likely to slip through bounds checks.
	var e Enc
	guard := types.UID{3}
	EncodeCallOptions(&e, CallOptions{User: "u", Branch: "b", BranchSet: true,
		Bases: []types.UID{{1}}, Guard: &guard, Meta: []byte("m")})
	EncodeValue(&e, types.NewBlob(bytes.Repeat([]byte("x"), 1000)))
	valid := e.Bytes()
	for cut := 0; cut <= len(valid); cut++ {
		decodeAnything(valid[:cut])
	}
	// Hostile length fields: huge counts over tiny payloads.
	var h Enc
	h.U32(0xfffffff0)
	decodeAnything(h.Bytes())
}

func FuzzWireDecode(f *testing.F) {
	var e Enc
	EncodeValue(&e, types.String("seed"))
	f.Add(e.Bytes())
	f.Add(AppendFrame(nil, 1, OpGet, []byte("x")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	var cs Enc
	EncodeBitmap(&cs, []bool{true, false, true, true, false, false, true, false, true})
	f.Add(cs.Bytes())
	var up Enc
	EncodeChunkUpload(&up, []*chunk.Chunk{chunk.New(chunk.TypeBlob, []byte("fuzz seed"))})
	f.Add(up.Bytes())
	// Want requests: well-formed, flagless (a peer that predates the
	// flags byte) and with bits no server knows.
	f.Add(wantRequest([]chunk.ID{{1}, {2}}, WantFlagDeep))
	f.Add(wantRequest([]chunk.ID{{1}}))
	f.Add(wantRequest(nil, 0xfd))
	// A Tuple whose field count (2^31-1) no payload could hold.
	var bomb Enc
	bomb.U8(uint8(types.TypeTuple))
	bomb.Blob([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(bomb.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeAnything(b)
	})
}
