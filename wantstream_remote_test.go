package forkbase_test

// The Want protocol: part framing and flush bounds at the wire level,
// the one-round-trip deep tree walk, cancellation ending a stream
// without costing the connection, lazy single-chunk fetches and the
// access check a fully cached read still makes.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// wantRaw sends one OpChunkWant and collects the whole streamed
// answer: every part's chunk frames, then the final status
// frame decoded like any other response. Each ReadFrame call allocates
// its own buffer, so retaining frames across parts is safe here.
func wantRaw(t *testing.T, c net.Conn, key string, ids []chunk.ID, flags uint8) (parts [][]wire.ChunkFrame, final *wire.Dec, ep *wire.ErrorPayload) {
	t.Helper()
	var e wire.Enc
	wire.EncodeCallOptions(&e, wire.CallOptions{})
	e.Str(key)
	wire.EncodeUIDs(&e, ids)
	e.U8(flags)
	if err := wire.WriteFrame(c, 7, wire.OpChunkWant, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	for {
		_, op, payload, err := wire.ReadFrame(c, 0)
		if err != nil {
			t.Fatalf("stream torn down mid-answer: %v", err)
		}
		if op == wire.OpChunkWantPart {
			d := wire.NewDec(payload)
			frames := wire.DecodeChunkUpload(d)
			if err := d.Err(); err != nil {
				t.Fatalf("undecodable part frame: %v", err)
			}
			parts = append(parts, frames)
			continue
		}
		if op != wire.OpChunkWant {
			t.Fatalf("stream answered with op %d", op)
		}
		if len(payload) == 0 {
			t.Fatal("empty final frame")
		}
		d := wire.NewDec(payload[1:])
		if payload[0] != 0 {
			e, derr := wire.DecodeError(d)
			if derr != nil {
				t.Fatalf("undecodable error payload: %v", derr)
			}
			return parts, nil, &e
		}
		return parts, d, nil
	}
}

// TestWantStreamParts: a Want for a batch far beyond one part's
// budget arrives as multiple bounded OpChunkWantPart frames whose union
// is exactly the requested-and-present set, ids the server does not
// hold are skipped, and the final status frame carries the count.
func TestWantStreamParts(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	c := rawChunkConn(t, addr)

	rnd := rand.New(rand.NewSource(21))
	var uploaded []*chunk.Chunk
	for i := 0; i < 40; i++ {
		body := make([]byte, 100<<10)
		rnd.Read(body)
		uploaded = append(uploaded, chunk.New(chunk.TypeBlob, body))
	}
	d, ep := chunkReq(t, c, wire.OpChunkSend, func(e *wire.Enc) {
		e.Str("doc")
		wire.EncodeChunkUpload(e, uploaded)
	})
	if ep != nil {
		t.Fatalf("upload: %v", ep.Err)
	}
	if stored := d.U32(); stored != 40 {
		t.Fatalf("upload admitted %d of 40 chunks", stored)
	}

	ids := make([]chunk.ID, 0, 41)
	for _, ch := range uploaded {
		ids = append(ids, ch.ID())
	}
	ids = append(ids, chunk.ID{0xde, 0xad}) // phantom: must be skipped, not failed

	parts, final, ep := wantRaw(t, c, "doc", ids, 0)
	if ep != nil {
		t.Fatalf("streamed want failed: %v", ep.Err)
	}
	if len(parts) < 4 {
		t.Fatalf("4 MB answer arrived in %d parts — streaming did not bound the frames", len(parts))
	}
	got := make(map[chunk.ID][]byte)
	for _, frames := range parts {
		var partBytes int
		for _, f := range frames {
			cc, err := chunk.Decode(f.Bytes)
			if err != nil {
				t.Fatalf("streamed chunk undecodable: %v", err)
			}
			if cc.ID() != f.ID {
				t.Fatalf("streamed chunk hashes to %s, claimed %s", cc.ID().Short(), f.ID.Short())
			}
			got[f.ID] = f.Bytes
			partBytes += len(f.Bytes)
		}
		if partBytes > 512<<10 {
			t.Fatalf("one part carries %d bytes — parts must stay well under the frame cap", partBytes)
		}
	}
	if n := final.U32(); n != 40 || final.Err() != nil {
		t.Fatalf("final frame counts %d streamed chunks (err %v), want 40", n, final.Err())
	}
	for _, ch := range uploaded {
		if !bytes.Equal(got[ch.ID()], ch.Bytes()) {
			t.Fatalf("chunk %s missing or corrupted in the stream", ch.ID().Short())
		}
	}
	if len(got) != 40 {
		t.Fatalf("stream answered %d distinct chunks, want 40 (phantom skipped)", len(got))
	}
}

// TestWantStreamDeep: a deep Want for a POS-Tree root streams the whole
// reachable tree — every index node and leaf — in one round trip, and
// the pulled chunks reproduce the content bit-for-bit.
func TestWantStreamDeep(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(22))
	data := make([]byte, 2<<20)
	rnd.Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	o, err := db.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	root, count, height, err := types.ParseChunkRef(o.Data)
	if err != nil {
		t.Fatalf("stored blob is not chunked: %v", err)
	}

	c := rawChunkConn(t, addr)
	parts, final, ep := wantRaw(t, c, "doc", []chunk.ID{root}, wire.WantFlagDeep)
	if ep != nil {
		t.Fatalf("deep want failed: %v", ep.Err)
	}
	local := store.NewMemStore()
	streamed := uint32(0)
	for _, frames := range parts {
		for _, f := range frames {
			cc, err := chunk.Decode(f.Bytes)
			if err != nil || cc.ID() != f.ID {
				t.Fatalf("deep stream shipped a corrupt chunk: %v", err)
			}
			if _, err := local.Put(cc); err != nil {
				t.Fatal(err)
			}
			streamed++
		}
	}
	if n := final.U32(); n != streamed || final.Err() != nil {
		t.Fatalf("final frame counts %d, client received %d", n, streamed)
	}
	at := postree.Attach(local, postree.DefaultConfig(), postree.KindBlob, root, count, height)
	got, err := at.Bytes()
	if err != nil {
		t.Fatalf("deep-pulled tree is incomplete: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("deep-pulled tree does not reproduce the content")
	}
}

// TestWantStreamCancelTerminates: cancelling a streamed Want mid-flight
// still ends the stream with exactly one final frame — the invariant
// the client's reaper relies on — and costs nothing but that request:
// the same connection keeps answering.
func TestWantStreamCancelTerminates(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(23)).Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	o, err := db.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	root, _, _, err := types.ParseChunkRef(o.Data)
	if err != nil {
		t.Fatal(err)
	}

	c := rawChunkConn(t, addr)
	var e wire.Enc
	wire.EncodeCallOptions(&e, wire.CallOptions{})
	e.Str("doc")
	wire.EncodeUIDs(&e, []chunk.ID{root})
	e.U8(wire.WantFlagDeep)
	if err := wire.WriteFrame(c, 7, wire.OpChunkWant, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	var ce wire.Enc
	ce.U64(7)
	if err := wire.WriteFrame(c, 8, wire.OpCancel, ce.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Drain to the final frame. Whether the cancel won the race (typed
	// error) or the stream completed first (ok) is timing; that it
	// terminates — and the connection survives — is the contract.
	for {
		_, op, _, err := wire.ReadFrame(c, 0)
		if err != nil {
			t.Fatalf("cancelled stream killed the connection: %v", err)
		}
		if op == wire.OpChunkWant {
			break
		}
		if op != wire.OpChunkWantPart {
			t.Fatalf("unexpected op %d in stream", op)
		}
	}
	if present := probeChunk(t, c, root); !present {
		t.Fatal("connection no longer answers after a cancelled stream")
	}
}

// TestWantStreamFallbackMatrix: what is left of the opt-out matrix now
// that there is one protocol — a cold read returns the bytes, and the
// warm re-read moves only delta traffic, so the dedup property holds.
func TestWantStreamFallbackMatrix(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(24))
	data := make([]byte, 4<<20)
	rnd.Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true, ChunkCacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := readDoc(t, rc, "doc"); !bytes.Equal(got, data) {
		t.Fatal("cold read corrupted the object")
	}
	base := wireBytes(rc, "in")
	if got := readDoc(t, rc, "doc"); !bytes.Equal(got, data) {
		t.Fatal("warm read corrupted the object")
	}
	if moved := wireBytes(rc, "in") - base; moved > int64(len(data))/10 {
		t.Fatalf("warm re-read moved %d bytes — the dedup property is lost", moved)
	}
}

// TestWantStreamLazyChunkGet: a value handle whose chunks left the
// cache refetches them one at a time through the same streamed Want.
// Reading a few bytes costs exactly one single-chunk Want per tree
// level, the server ships exactly those chunks' bytes as parts, and
// each arrives verified and is admitted — the same read again touches
// no network.
func TestWantStreamLazyChunkGet(t *testing.T) {
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(25)).Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	o, err := rc.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	_, _, height, err := types.ParseChunkRef(o.Data)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	rc.DropChunkCacheForTest()

	counters := func() (wants, streamed int64) {
		snap := srv.MetricsSnapshot()
		w, _ := sampleValue(snap, "forkbase_server_requests_total", `op="chunk_want"`)
		s, _ := sampleValue(snap, "forkbase_server_chunksync_bytes_total", `op="stream"`)
		return w.Value, s.Value
	}
	wants0, streamed0 := counters()
	const off = 512<<10 + 17
	got := make([]byte, 8)
	if _, err := b.ReadAt(got, off); err != nil {
		t.Fatalf("read after cache loss: %v", err)
	}
	if !bytes.Equal(got, data[off:off+8]) {
		t.Fatal("lazy fetch corrupted the read")
	}
	wants1, streamed1 := counters()
	if n := wants1 - wants0; n != int64(height) {
		t.Fatalf("an 8-byte read of a height-%d tree made %d Wants, want one per level", height, n)
	}
	// What the server shipped is what the client admitted: the chunks on
	// the one root-to-leaf path, and nothing else.
	if held := rc.ChunkCacheStatsForTest(); held.Chunks != height || streamed1-streamed0 != held.Bytes {
		t.Fatalf("server streamed %d bytes; client cache holds %d chunks, %d bytes; want %d chunks and equal bytes",
			streamed1-streamed0, held.Chunks, held.Bytes, height)
	}
	if _, err := b.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if wants2, _ := counters(); wants2 != wants1 {
		t.Fatalf("re-reading the fetched range made %d more Wants — lazily fetched chunks were not admitted", wants2-wants1)
	}
}

// TestWantStreamWarmCacheAccessCheck: with every chunk already cached a
// Value moves no chunk, so nothing it needs would carry the user to the
// server — it makes an empty Want for the access check alone. A user
// who may not read the key is refused from a warm cache exactly as from
// a cold one.
func TestWantStreamWarmCacheAccessCheck(t *testing.T) {
	acl := forkbase.NewACL(false)
	acl.Grant("admin", "", "", forkbase.PermAdmin)
	acl.Grant("reader", "doc", "", forkbase.PermRead)
	db := forkbase.Open(forkbase.Options{ACL: acl})
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(26)).Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data), forkbase.WithUser("admin")); err != nil {
		t.Fatal(err)
	}
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	o, err := rc.Get(ctx, "doc", forkbase.WithUser("reader"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Value(ctx, "doc", o, forkbase.WithUser("reader")); err != nil {
		t.Fatalf("cold read by a granted user: %v", err)
	}
	streamed := func() int64 {
		s, _ := sampleValue(srv.MetricsSnapshot(), "forkbase_server_chunksync_bytes_total", `op="stream"`)
		return s.Value
	}
	warm := streamed()
	if _, err := rc.Value(ctx, "doc", o, forkbase.WithUser("reader")); err != nil {
		t.Fatalf("warm read by a granted user: %v", err)
	}
	if _, err := rc.Value(ctx, "doc", o, forkbase.WithUser("stranger")); !errors.Is(err, forkbase.ErrAccessDenied) {
		t.Fatalf("warm-cache Value by a user without read access: %v, want ErrAccessDenied", err)
	}
	if moved := streamed() - warm; moved != 0 {
		t.Fatalf("warm reads streamed %d chunk bytes", moved)
	}
}
