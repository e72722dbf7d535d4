package forkbase_test

// Chunk-granular transfer over the wire: the delta-sync acceptance
// criterion (re-reading a 1%-edited object moves <=10% of its bytes),
// torture tests for the chunk ops' failure modes, the negotiation
// shields' GC interplay across disconnects, and the fallback when a
// server does not offer the feature.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/wire"
)

// readDoc fetches key over chunk sync and returns its full contents.
func readDoc(t *testing.T, rc *forkbase.RemoteStore, key string) []byte {
	t.Helper()
	ctx := context.Background()
	o, err := rc.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.Value(ctx, key, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// spliceAt returns data with ins spliced over len(ins) bytes at off —
// the expected image of a Blob.Splice with del == len(ins).
func spliceAt(data, ins []byte, off int) []byte {
	out := append([]byte{}, data[:off]...)
	out = append(out, ins...)
	return append(out, data[off+len(ins):]...)
}

// TestChunkSyncDeltaBytesOnWire is the subsystem's reason to exist,
// measured at the socket: after a 1% edit, re-reading the object moves
// at most 10% of its bytes over the wire, and re-writing the client's
// own 1% edit uploads at most 10% too.
func TestChunkSyncDeltaBytesOnWire(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{
		ChunkSync:     true,
		ChunkCacheDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()

	rnd := rand.New(rand.NewSource(42))
	data := make([]byte, 4<<20)
	rnd.Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}

	// Cold read: the whole object must cross the wire once.
	base := wireBytes(rc, "in")
	if got := readDoc(t, rc, "doc"); !bytes.Equal(got, data) {
		t.Fatal("cold read corrupted the object")
	}
	cold := wireBytes(rc, "in") - base
	if cold < int64(len(data)) {
		t.Fatalf("cold read of %d bytes moved only %d on the wire", len(data), cold)
	}

	// A 1% edit lands on the server behind the client's back.
	edit := make([]byte, len(data)/100)
	rnd.Read(edit)
	o, err := db.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Splice(uint64(len(data)/2), uint64(len(edit)), edit); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(ctx, "doc", b); err != nil {
		t.Fatal(err)
	}
	edited := spliceAt(data, edit, len(data)/2)

	// Warm re-read: only the delta may cross.
	base = wireBytes(rc, "in")
	if got := readDoc(t, rc, "doc"); !bytes.Equal(got, edited) {
		t.Fatal("re-read did not observe the edit")
	}
	delta := wireBytes(rc, "in") - base
	if limit := int64(len(data)) / 10; delta > limit {
		t.Fatalf("1%% edit re-read moved %d of %d bytes on the wire (limit %d)", delta, len(data), limit)
	}

	// Write direction: the client edits 1% and Puts; the negotiation
	// must skip everything the server already holds.
	o2, err := rc.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := rc.Value(ctx, "doc", o2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := forkbase.AsBlob(v2)
	if err != nil {
		t.Fatal(err)
	}
	edit2 := make([]byte, len(data)/100)
	rnd.Read(edit2)
	if err := b2.Splice(uint64(len(data)/4), uint64(len(edit2)), edit2); err != nil {
		t.Fatal(err)
	}
	sentBase := wireBytes(rc, "out")
	uid, err := rc.Put(ctx, "doc", b2)
	if err != nil {
		t.Fatal(err)
	}
	sent := wireBytes(rc, "out") - sentBase
	if limit := int64(len(data)) / 10; sent > limit {
		t.Fatalf("1%% edit put sent %d of %d bytes on the wire (limit %d)", sent, len(data), limit)
	}
	// The server materializes exactly the client's image.
	so, err := db.Get(ctx, "doc")
	if err != nil || so.UID() != uid {
		t.Fatalf("server head: %v (uid match %v)", err, so.UID() == uid)
	}
	sb, err := db.BlobOf(so)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.Bytes()
	if err != nil || !bytes.Equal(got, spliceAt(edited, edit2, len(data)/4)) {
		t.Fatalf("server content diverged after delta put: %v", err)
	}
}

// TestChunkSyncCachePersistsAcrossDials: a fresh client pointed at the
// same cache directory re-reads an unchanged object without re-pulling
// its chunks.
func TestChunkSyncCachePersistsAcrossDials(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<20)
	rnd.Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rc1, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true, ChunkCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := readDoc(t, rc1, "doc"); !bytes.Equal(got, data) {
		t.Fatal("cold read corrupted the object")
	}
	rc1.Close()

	rc2, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true, ChunkCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	base := wireBytes(rc2, "in")
	if got := readDoc(t, rc2, "doc"); !bytes.Equal(got, data) {
		t.Fatal("warm read corrupted the object")
	}
	if moved := wireBytes(rc2, "in") - base; moved > int64(len(data))/10 {
		t.Fatalf("warm read against a persistent cache still moved %d bytes", moved)
	}
}

// TestChunkSyncColdMissHonorsCtx: a chunk-synced handle's lazy fetches
// are scoped by the context of the Value call that attached it. After
// the local cache loses the tree, reading the handle cold-misses over
// the wire — with the attach context live that refetch is transparent;
// cancelled, it must abort instead of riding an unbounded background
// request.
func TestChunkSyncColdMissHonorsCtx(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(11))
	data := make([]byte, 1<<20)
	rnd.Read(data)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}

	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Live attach context: a handle whose chunks vanished refetches
	// them transparently.
	o, err := rc.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := forkbase.AsBlob(v1)
	if err != nil {
		t.Fatal(err)
	}
	rc.DropChunkCacheForTest()
	base := wireBytes(rc, "in")
	got, err := b1.Bytes()
	if err != nil {
		t.Fatalf("read after cache loss with live ctx: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("lazy refetch corrupted the object")
	}
	if moved := wireBytes(rc, "in") - base; moved < int64(len(data)) {
		t.Fatalf("read after cache loss moved only %d of %d bytes", moved, len(data))
	}

	// Cancelled attach context: the cold miss must abort, not fetch.
	vctx, cancel := context.WithCancel(ctx)
	v2, err := rc.Value(vctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := forkbase.AsBlob(v2)
	if err != nil {
		t.Fatal(err)
	}
	rc.DropChunkCacheForTest()
	cancel()
	base = wireBytes(rc, "in")
	if _, err := b2.Bytes(); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: err = %v, want context.Canceled", err)
	}
	if moved := wireBytes(rc, "in") - base; moved > 4<<10 {
		t.Fatalf("cancelled read still moved %d bytes over the wire", moved)
	}
}

// rawChunkConn dials a raw wire connection and completes the hello,
// for handcrafted chunk-op frames.
func rawChunkConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var e wire.Enc
	e.U32(wire.ProtoVersion)
	e.Str("")
	if err := wire.WriteFrame(c, 1, wire.OpHello, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wire.ReadFrame(c, 0); err != nil {
		t.Fatal(err)
	}
	return c
}

// chunkReq sends one chunk op carrying empty call options plus fill's
// payload and returns the decoded response: (body, nil) on success,
// (nil, error payload) on a request-scoped failure. Any transport
// error fails the test — these requests must never kill a connection.
func chunkReq(t *testing.T, c net.Conn, op uint8, fill func(e *wire.Enc)) (*wire.Dec, *wire.ErrorPayload) {
	t.Helper()
	return chunkReqOpts(t, c, op, wire.CallOptions{}, fill)
}

// chunkReqOpts is chunkReq with the call options the request carries.
func chunkReqOpts(t *testing.T, c net.Conn, op uint8, co wire.CallOptions, fill func(e *wire.Enc)) (*wire.Dec, *wire.ErrorPayload) {
	t.Helper()
	var e wire.Enc
	wire.EncodeCallOptions(&e, co)
	if fill != nil {
		fill(&e)
	}
	if err := wire.WriteFrame(c, 99, op, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatalf("op %d killed the connection: %v", op, err)
	}
	if len(payload) == 0 {
		t.Fatalf("op %d: empty response", op)
	}
	d := wire.NewDec(payload[1:])
	if payload[0] != 0 {
		ep, derr := wire.DecodeError(d)
		if derr != nil {
			t.Fatalf("op %d: undecodable error payload: %v", op, derr)
		}
		return nil, &ep
	}
	return d, nil
}

// probeChunk asks (via Want, which takes no GC shields) whether the
// server still holds id.
func probeChunk(t *testing.T, c net.Conn, id chunk.ID) bool {
	t.Helper()
	parts, _, ep := wantRaw(t, c, "doc", []chunk.ID{id}, 0)
	if ep != nil {
		t.Fatalf("want probe failed: %v", ep.Err)
	}
	return len(parts) == 1 && len(parts[0]) == 1 && parts[0][0].ID == id
}

// TestChunkSyncTortureWireOps attacks the chunk ops the way the
// generic torture test attacks the core ones: malformed payloads and
// integrity violations cost one request, an unframeable write costs
// the connection, and in every case other clients stay served.
func TestChunkSyncTortureWireOps(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	healthy, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	ctx := context.Background()

	checkHealthy := func(attack string) {
		t.Helper()
		key := fmt.Sprintf("k-%s", attack)
		uid, err := healthy.Put(ctx, key, forkbase.String("alive"))
		if err != nil {
			t.Fatalf("after %s: healthy put: %v", attack, err)
		}
		o, err := healthy.Get(ctx, key)
		if err != nil || o.UID() != uid {
			t.Fatalf("after %s: healthy get: %v", attack, err)
		}
	}

	t.Run("GarbageHaveWantLists", func(t *testing.T) {
		c := rawChunkConn(t, addr)
		for _, op := range []uint8{wire.OpChunkHave, wire.OpChunkWant} {
			if _, ep := chunkReq(t, c, op, func(e *wire.Enc) {
				e.Str("doc")
				e.U32(0xfffffff0) // a uid count the payload cannot hold
			}); ep == nil {
				t.Fatalf("op %d decoded a hostile uid count", op)
			}
		}
		// A Want without its flags byte (a peer that predates it) or
		// with bits this server does not know is refused with a typed
		// error, not answered in some other format.
		if _, ep := chunkReq(t, c, wire.OpChunkWant, func(e *wire.Enc) {
			e.Str("doc")
			wire.EncodeUIDs(e, []chunk.ID{{1, 2, 3}})
		}); ep == nil || !errors.Is(ep.Err, wire.ErrCodec) {
			t.Fatalf("flagless want: %+v, want ErrCodec", ep)
		}
		for _, flags := range []uint8{1 << 0, wire.WantFlagDeep | 1<<7} {
			if _, ep := chunkReq(t, c, wire.OpChunkWant, func(e *wire.Enc) {
				e.Str("doc")
				wire.EncodeUIDs(e, []chunk.ID{{1, 2, 3}})
				e.U8(flags)
			}); ep == nil || !errors.Is(ep.Err, forkbase.ErrBadOptions) {
				t.Fatalf("want with unknown flags %#x: %+v, want ErrBadOptions", flags, ep)
			}
		}
		// The connection survives and still answers a real request.
		if present := probeChunk(t, c, chunk.ID{1, 2, 3}); present {
			t.Fatal("phantom chunk reported present")
		}
		checkHealthy("garbage-have-want")
	})

	t.Run("UIDMismatchedPayload", func(t *testing.T) {
		c := rawChunkConn(t, addr)
		good := chunk.New(chunk.TypeBlob, []byte("honest bytes"))
		var wrong chunk.ID
		wrong[0] = 0xee
		_, ep := chunkReq(t, c, wire.OpChunkSend, func(e *wire.Enc) {
			e.Str("doc")
			e.U32(1)
			e.UID(wrong)
			e.Blob(good.Bytes())
		})
		if ep == nil || !errors.Is(ep.Err, forkbase.ErrCorrupt) {
			t.Fatalf("uid-mismatched chunk: %+v", ep)
		}
		// The batch was rejected before admission: neither the claimed
		// nor the actual id exists server-side.
		if probeChunk(t, c, wrong) || probeChunk(t, c, good.ID()) {
			t.Fatal("rejected upload left chunks behind")
		}
		// Undecodable bytes are the same class of failure.
		if _, ep := chunkReq(t, c, wire.OpChunkSend, func(e *wire.Enc) {
			e.Str("doc")
			e.U32(1)
			e.UID(good.ID())
			e.Blob([]byte{0xff, 0x00})
		}); ep == nil || !errors.Is(ep.Err, forkbase.ErrCorrupt) {
			t.Fatalf("undecodable chunk: %+v", ep)
		}
		checkHealthy("uid-mismatch")
	})

	t.Run("OversizedChunkFrame", func(t *testing.T) {
		c := rawChunkConn(t, addr)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(wire.DefaultMaxFrame+1))
		c.Write(hdr[:])
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1024)
		for {
			if _, err := c.Read(buf); err != nil {
				break // closed: a frame violation costs the connection
			}
		}
		checkHealthy("oversized-chunk-frame")
	})

	t.Run("MidNegotiationDisconnect", func(t *testing.T) {
		// An uploader negotiates, pushes a chunk, and vanishes before
		// committing. While its connection lives, the shield holds the
		// orphan through a GC; once it drops, the next GC sweeps it —
		// and the server serves everyone else throughout.
		c := rawChunkConn(t, addr)
		orphan := chunk.New(chunk.TypeBlob, bytes.Repeat([]byte("orphan"), 4096))
		d, ep := chunkReq(t, c, wire.OpChunkSend, func(e *wire.Enc) {
			e.Str("doc")
			e.U32(1)
			e.UID(orphan.ID())
			e.Blob(orphan.Bytes())
		})
		if ep != nil {
			t.Fatalf("upload: %v", ep.Err)
		}
		if stored := d.U32(); stored != 1 {
			t.Fatalf("upload admitted %d chunks", stored)
		}
		probe := rawChunkConn(t, addr)
		if _, err := db.GC(ctx); err != nil {
			t.Fatal(err)
		}
		if !probeChunk(t, probe, orphan.ID()) {
			t.Fatal("GC swept a chunk shielded by a live negotiation")
		}
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err := db.GC(ctx); err != nil {
				t.Fatal(err)
			}
			if !probeChunk(t, probe, orphan.ID()) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("orphan chunk survived GC after its uploader disconnected")
			}
			time.Sleep(10 * time.Millisecond)
		}
		checkHealthy("mid-negotiation-disconnect")
	})
}

// TestChunkSyncDisabled: a server whose backend has no local chunk
// store (a cluster) does not offer the feature, still serves a
// chunk-sync-configured client (which falls back to full-ship), and
// answers a direct chunk op with the typed unsupported error.
func TestChunkSyncDisabled(t *testing.T) {
	cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, cc, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true, ChunkCacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	data := bytes.Repeat([]byte("fallback"), 1<<15)
	if _, err := rc.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	if got := readDoc(t, rc, "doc"); !bytes.Equal(got, data) {
		t.Fatal("full-ship fallback corrupted the object")
	}

	c := rawChunkConn(t, addr)
	_, ep := chunkReq(t, c, wire.OpChunkHave, func(e *wire.Enc) {
		e.Str("doc")
		wire.EncodeUIDs(e, []chunk.ID{{1}})
	})
	if ep == nil || !errors.Is(ep.Err, wire.ErrUnsupported) {
		t.Fatalf("chunk op on a disabled server: %+v", ep)
	}
}
