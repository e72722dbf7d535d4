package forkbase_test

// Hot-path behaviour of the network server: duplicate request-id
// refusal, server-side put coalescing under pipelined bursts, and
// steady-state allocation pins for the client round trip. These are
// the regression nets for the pooled/batched request path — the
// conformance suites prove the semantics, these prove the plumbing
// underneath them cannot silently regress.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// rawHello dials addr and completes the Hello handshake, returning a
// connection ready for hand-built frames.
func rawHello(t *testing.T, addr string) net.Conn {
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
	if _, _, payload, err := wire.ReadFrame(c, 0); err != nil || len(payload) == 0 || payload[0] != 0 {
		t.Fatalf("hello failed: %v", err)
	}
	return c
}

// getPayload builds an OpGet request body for key with default options.
func getPayload(key string) []byte {
	var e wire.Enc
	wire.EncodeCallOptions(&e, wire.CallOptions{})
	e.Str(key)
	return e.Bytes()
}

// putPayload builds an OpPut request body writing String(val) to key.
func putPayload(t *testing.T, key, val string) []byte {
	t.Helper()
	var e wire.Enc
	wire.EncodeCallOptions(&e, wire.CallOptions{})
	e.Str(key)
	if err := wire.EncodeValue(&e, types.String(val)); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// TestRemoteDuplicateRequestID proves reusing an in-flight request id
// is refused with ErrDuplicateRequest, does not disturb the original
// request, and costs the connection nothing: after the refusal the
// original can still be cancelled and the connection still serves.
func TestRemoteDuplicateRequestID(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	bs := newBlockingStore(forkbase.Open(), gate)
	addr, _ := startServer(t, bs, forkbase.ServerOptions{})

	// Seed a key through a real client so Gets have something to find.
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Put(context.Background(), "k", forkbase.String("v")); err != nil {
		t.Fatal(err)
	}

	c := rawHello(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))

	// Park a Get under id 7.
	bs.block.Store(true)
	if err := wire.WriteFrame(c, 7, wire.OpGet, getPayload("k")); err != nil {
		t.Fatal(err)
	}
	<-bs.entered // the handler is inside Get, id 7 is registered

	// Reuse id 7 while it is in flight: the newcomer must be refused
	// with the typed sentinel, and the refusal must arrive while the
	// original is still parked.
	if err := wire.WriteFrame(c, 7, wire.OpGet, getPayload("k")); err != nil {
		t.Fatal(err)
	}
	reqID, op, payload, err := wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatalf("duplicate id killed the connection: %v", err)
	}
	if reqID != 7 || op != wire.OpGet {
		t.Fatalf("unexpected response frame: id %d op %d", reqID, op)
	}
	if len(payload) == 0 || payload[0] != 1 {
		t.Fatal("duplicate id was not refused")
	}
	d := wire.NewDec(payload[1:])
	ep, derr := wire.DecodeError(d)
	if derr != nil {
		t.Fatal(derr)
	}
	if !errors.Is(ep.Err, forkbase.ErrDuplicateRequest) {
		t.Fatalf("refusal error = %v, want ErrDuplicateRequest", ep.Err)
	}

	// The ORIGINAL registration must have survived the refusal: an
	// OpCancel for id 7 still reaches it and aborts the parked Get.
	var ce wire.Enc
	ce.U64(7)
	if err := wire.WriteFrame(c, 8, wire.OpCancel, ce.Bytes()); err != nil {
		t.Fatal(err)
	}
	reqID, _, payload, err = wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatalf("cancel after duplicate: %v", err)
	}
	if reqID != 7 || len(payload) == 0 || payload[0] != 1 {
		t.Fatalf("expected the original id-7 request to fail with cancellation, got id %d", reqID)
	}
	select {
	case <-bs.aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("original request not cancelled — its registration was lost")
	}

	// The connection survives all of it and the id is free again.
	bs.block.Store(false)
	if err := wire.WriteFrame(c, 7, wire.OpGet, getPayload("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, payload, err = wire.ReadFrame(c, 0); err != nil || len(payload) == 0 || payload[0] != 0 {
		t.Fatalf("connection unusable after duplicate-id refusal: %v", err)
	}
}

// TestRemotePutCoalescingBurst fires a pipelined burst of Put frames
// in a single TCP segment — the shape the server coalesces into one
// engine batch — and proves per-request semantics hold: every request
// gets its own response, an undecodable value fails only its own put,
// and a repeated key (which cannot join the batch) still commits.
func TestRemotePutCoalescingBurst(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	c := rawHello(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))

	// ids 100..105: distinct keys, coalescible. id 106: garbage value
	// bytes (fails decode on the worker). id 107: repeats key ck-0, so
	// it must break out of the batch and run alone.
	var burst []byte
	for i := 0; i < 6; i++ {
		burst = wire.AppendFrame(burst, uint64(100+i), wire.OpPut,
			putPayload(t, fmt.Sprintf("ck-%d", i), fmt.Sprintf("v%d", i)))
	}
	var ge wire.Enc
	wire.EncodeCallOptions(&ge, wire.CallOptions{})
	ge.Str("ck-bad")
	ge.U8(0xff) // unknown value type code
	burst = wire.AppendFrame(burst, 106, wire.OpPut, ge.Bytes())
	burst = wire.AppendFrame(burst, 107, wire.OpPut, putPayload(t, "ck-0", "v0b"))
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}

	// Eight responses, in whatever order the workers finish; key them
	// by request id.
	status := make(map[uint64]byte)
	for i := 0; i < 8; i++ {
		reqID, op, payload, err := wire.ReadFrame(c, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if op != wire.OpPut || len(payload) == 0 {
			t.Fatalf("response %d: op %d, %d payload bytes", i, op, len(payload))
		}
		if _, dup := status[reqID]; dup {
			t.Fatalf("two responses for id %d", reqID)
		}
		status[reqID] = payload[0]
	}
	for id := uint64(100); id <= 105; id++ {
		if status[id] != 0 {
			t.Fatalf("put id %d failed inside the batch", id)
		}
	}
	if status[106] != 1 {
		t.Fatal("undecodable value did not fail its own request")
	}
	if status[107] != 0 {
		t.Fatal("repeated-key put failed")
	}

	// Every committed write is visible through the ordinary API.
	ctx := context.Background()
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 1; i < 6; i++ {
		key := fmt.Sprintf("ck-%d", i)
		o, err := rc.Get(ctx, key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		v, err := rc.Value(ctx, key, o)
		if err != nil {
			t.Fatal(err)
		}
		if v != forkbase.String(fmt.Sprintf("v%d", i)) {
			t.Fatalf("%s = %v", key, v)
		}
	}
	// ck-0 was written twice from two racing batches; either order is
	// legal, but both versions must be in its history.
	o, err := rc.Get(ctx, "ck-0")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.Value(ctx, "ck-0", o)
	if err != nil {
		t.Fatal(err)
	}
	if v != forkbase.String("v0") && v != forkbase.String("v0b") {
		t.Fatalf("ck-0 = %v", v)
	}
	hist, err := rc.Track(ctx, "ck-0", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("ck-0 history has %d versions, want 2", len(hist))
	}
	if _, err := rc.Get(ctx, "ck-bad"); !errors.Is(err, forkbase.ErrKeyNotFound) {
		t.Fatalf("failed put left state behind: %v", err)
	}
}

// TestRemoteRoundTripAllocs pins the client-observed allocation cost
// of a small Get and Put round trip — the whole in-process pipeline:
// client encode, both frame trips, server dispatch and response
// decode. The bounds are deliberately loose (the engine and codec
// allocate result values by design); what they catch is the hot path
// regrowing a per-frame allocation storm once pooling rots.
func TestRemoteRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	if _, err := rc.Put(ctx, "k", forkbase.String("warm")); err != nil {
		t.Fatal(err)
	}

	// AllocsPerRun counts every malloc in the process, server included
	// — which is the point: the pin covers the full round trip.
	gets := testing.AllocsPerRun(100, func() {
		if _, err := rc.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~18 allocs/op on the pooled path; pin at 2x so noise
	// passes but a per-frame allocation storm does not.
	if gets > 40 {
		t.Fatalf("remote Get round trip: %.0f allocs/op, want ≤40", gets)
	}
	puts := testing.AllocsPerRun(100, func() {
		if _, err := rc.Put(ctx, "k", forkbase.String("steady")); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~25 allocs/op (the engine allocates the new version).
	if puts > 60 {
		t.Fatalf("remote Put round trip: %.0f allocs/op, want ≤60", puts)
	}
}

// TestEmbeddedGetPutAllocs pins the embedded Get and Put — the path
// every benchmark workload reaches the engine through — at exactly the
// allocation counts measured before the Store contract moved into the
// shared policy layer (policy.go): that layer must not pay for its
// tidiness with a closure or an escaping option set per call.
func TestEmbeddedGetPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := forkbase.Open()
	defer db.Close()
	ctx := context.Background()
	if _, err := db.Put(ctx, "k", forkbase.String("warm")); err != nil {
		t.Fatal(err)
	}
	gets := testing.AllocsPerRun(200, func() {
		if _, err := db.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	})
	if gets != 3 {
		t.Fatalf("embedded Get: %.0f allocs/op, want exactly 3", gets)
	}
	v := forkbase.String("steady")
	puts := testing.AllocsPerRun(200, func() {
		if _, err := db.Put(ctx, "k", v); err != nil {
			t.Fatal(err)
		}
	})
	if puts != 11 {
		t.Fatalf("embedded Put: %.0f allocs/op, want exactly 11", puts)
	}
}

// TestRemoteCoalescedPutDuplicateID: a put whose id is already in
// flight — here, held by the put ahead of it in a coalescible burst —
// is refused with ErrDuplicateRequest and writes nothing, exactly as
// on the slow path; the original and the put after it commit. A chunk
// Send, answered on the read loop, is refused the same way while its
// id is held by a request parked on a worker.
func TestRemoteCoalescedPutDuplicateID(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	c := rawHello(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))

	var burst []byte
	burst = wire.AppendFrame(burst, 100, wire.OpPut, putPayload(t, "a", "va"))
	burst = wire.AppendFrame(burst, 100, wire.OpPut, putPayload(t, "b", "vb"))
	burst = wire.AppendFrame(burst, 101, wire.OpPut, putPayload(t, "c", "vc"))
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	ok := map[uint64]int{}
	dups := 0
	for i := 0; i < 3; i++ {
		reqID, op, payload, err := wire.ReadFrame(c, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if op != wire.OpPut || len(payload) == 0 {
			t.Fatalf("response %d: op %d, %d payload bytes", i, op, len(payload))
		}
		if payload[0] == 0 {
			ok[reqID]++
			continue
		}
		ep, err := wire.DecodeError(wire.NewDec(payload[1:]))
		if err != nil {
			t.Fatal(err)
		}
		if reqID != 100 || !errors.Is(ep.Err, forkbase.ErrDuplicateRequest) {
			t.Fatalf("id %d failed: %v", reqID, ep.Err)
		}
		dups++
	}
	if ok[100] != 1 || ok[101] != 1 || dups != 1 {
		t.Fatalf("successes by id %v and %d duplicate refusals; want one each for ids 100 and 101, and one refusal", ok, dups)
	}
	ctx := context.Background()
	for _, key := range []string{"a", "c"} {
		if _, err := db.Get(ctx, key); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if _, err := db.Get(ctx, "b"); !errors.Is(err, forkbase.ErrKeyNotFound) {
		t.Fatalf("refused put wrote key b: %v", err)
	}

	// Park a collection under id 200 between its root reads, then send
	// a chunk under the same id.
	entered, resume := make(chan struct{}), make(chan struct{})
	var resumeOnce sync.Once
	release := func() { resumeOnce.Do(func() { close(resume) }) }
	t.Cleanup(release) // before the server's Close, which waits for the collection
	db.SetRootsHookForTest(func() {
		db.SetRootsHookForTest(nil)
		close(entered)
		<-resume
	})
	var gc wire.Enc
	wire.EncodeCallOptions(&gc, wire.CallOptions{})
	if err := wire.WriteFrame(c, 200, wire.OpGC, gc.Bytes()); err != nil {
		t.Fatal(err)
	}
	<-entered
	sent := chunk.New(chunk.TypeBlob, []byte("sent under a reused id"))
	var send wire.Enc
	wire.EncodeCallOptions(&send, wire.CallOptions{})
	send.Str("d")
	wire.EncodeChunkUpload(&send, []*chunk.Chunk{sent})
	if err := wire.WriteFrame(c, 200, wire.OpChunkSend, send.Bytes()); err != nil {
		t.Fatal(err)
	}
	reqID, op, payload, err := wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 200 || op != wire.OpChunkSend || len(payload) == 0 || payload[0] != 1 {
		t.Fatalf("a Send reusing an id in flight: id %d op %d answered first; want the Send's refusal", reqID, op)
	}
	if ep, err := wire.DecodeError(wire.NewDec(payload[1:])); err != nil || !errors.Is(ep.Err, forkbase.ErrDuplicateRequest) {
		t.Fatalf("a Send reusing an id in flight failed with %v (decode: %v); want ErrDuplicateRequest", ep.Err, err)
	}
	if db.ChunkStoreForTest().Has(sent.ID()) {
		t.Fatal("the refused Send stored its chunk")
	}
	release()
	reqID, op, payload, err = wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 200 || op != wire.OpGC || len(payload) == 0 || payload[0] != 0 {
		t.Fatalf("after the refusal: id %d op %d; want the parked collection's success", reqID, op)
	}
	// The id is free again: the same Send is now served.
	if err := wire.WriteFrame(c, 200, wire.OpChunkSend, send.Bytes()); err != nil {
		t.Fatal(err)
	}
	if reqID, op, payload, err = wire.ReadFrame(c, 0); err != nil || reqID != 200 || op != wire.OpChunkSend || len(payload) == 0 || payload[0] != 0 {
		t.Fatalf("the Send after the id was released: id %d op %d, %v", reqID, op, err)
	}
}
