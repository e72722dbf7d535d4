package forkbase_test

// Hot-path behaviour of the network server: duplicate request-id
// refusal, runs of Puts under pipelined bursts and their journal
// scope, and
// steady-state allocation pins for the client round trip. These are
// the regression nets for the pooled/batched request path — the
// conformance suites prove the semantics, these prove the plumbing
// underneath them cannot silently regress.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
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

// TestRemotePutBurst fires a pipelined burst of Put frames in a single
// TCP segment — the shape the server answers as one run of Puts under
// one journal scope — and proves per-request semantics hold: every
// request gets its own response, an undecodable value and a guarded
// put against a missing branch fail only their own puts, and a
// repeated key still commits.
func TestRemotePutBurst(t *testing.T) {
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	c := rawHello(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))

	// ids 100..105: distinct keys. id 108, between 102 and 103: a put
	// guarded on a branch that does not exist. id 106: garbage value
	// bytes (fails decode). id 107: repeats key ck-0.
	var stale types.UID
	stale[0] = 0xee
	var burst []byte
	for i := 0; i < 6; i++ {
		burst = wire.AppendFrame(burst, uint64(100+i), wire.OpPut,
			putPayload(t, fmt.Sprintf("ck-%d", i), fmt.Sprintf("v%d", i)))
		if i == 2 {
			var gp wire.Enc
			wire.EncodeCallOptions(&gp, wire.CallOptions{Guard: &stale})
			gp.Str("ck-guard")
			if err := wire.EncodeValue(&gp, types.String("vg")); err != nil {
				t.Fatal(err)
			}
			burst = wire.AppendFrame(burst, 108, wire.OpPut, gp.Bytes())
		}
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

	// Nine responses; key them by request id.
	status := make(map[uint64]byte)
	var guardErr error
	for i := 0; i < 9; i++ {
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
		if reqID == 108 && payload[0] == 1 {
			ep, err := wire.DecodeError(wire.NewDec(payload[1:]))
			if err != nil {
				t.Fatal(err)
			}
			guardErr = ep.Err
		}
	}
	for id := uint64(100); id <= 105; id++ {
		if status[id] != 0 {
			t.Fatalf("put id %d failed inside the burst", id)
		}
	}
	if status[106] != 1 {
		t.Fatal("undecodable value did not fail its own request")
	}
	if status[107] != 0 {
		t.Fatal("repeated-key put failed")
	}
	if status[108] != 1 || !errors.Is(guardErr, forkbase.ErrBranchNotFound) {
		t.Fatalf("guarded put against a missing branch: status %d, error %v; want ErrBranchNotFound", status[108], guardErr)
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
	// ck-0 was written twice in one burst; either order is legal, but
	// both versions must be in its history.
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
	for _, key := range []string{"ck-bad", "ck-guard"} {
		if _, err := rc.Get(ctx, key); !errors.Is(err, forkbase.ErrKeyNotFound) && !errors.Is(err, forkbase.ErrBranchNotFound) {
			t.Fatalf("failed put of %s left state behind: %v", key, err)
		}
	}
}

// TestRemoteRoundTripAllocs pins the client-observed allocation cost
// of a small Get and Put round trip — the whole in-process pipeline:
// client encode, both frame trips, server dispatch and response
// decode — at exactly the counts reached once nothing on the transport
// allocates per frame. What is left is inherent: the engine's result
// values, each side's escaping codec state, and the response buffer,
// which zero-copy decoders may alias past the call.
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
	if gets != 9 {
		t.Fatalf("remote Get round trip: %.0f allocs/op, want exactly 9", gets)
	}
	puts := testing.AllocsPerRun(100, func() {
		if _, err := rc.Put(ctx, "k", forkbase.String("steady")); err != nil {
			t.Fatal(err)
		}
	})
	// The engine allocates the new version; the put is answered on the
	// read loop, so no per-request context or worker handoff adds to it.
	if puts != 15 {
		t.Fatalf("remote Put round trip: %.0f allocs/op, want exactly 15", puts)
	}
	// A key of more than one byte adds only its decoded string (a
	// one-byte string is interned by the runtime): the branch table of
	// an existing key is found without copying the key.
	longPuts := testing.AllocsPerRun(100, func() {
		if _, err := rc.Put(ctx, "key-00000001", forkbase.String("steady")); err != nil {
			t.Fatal(err)
		}
	})
	if longPuts != 16 {
		t.Fatalf("remote Put round trip of a 12-byte key: %.0f allocs/op, want exactly 16", longPuts)
	}
	// With a user option, the server hands the backend the option set
	// it decoded as it is, whatever the op: it packs no option list. The
	// user string itself is decoded once per connection, not per call,
	// and the client's fold of its options allocates nothing.
	userGets := testing.AllocsPerRun(100, func() {
		if _, err := rc.Get(ctx, "k", forkbase.WithUser("alice")); err != nil {
			t.Fatal(err)
		}
	})
	if userGets != 11 {
		t.Fatalf("remote Get round trip WithUser: %.0f allocs/op, want exactly 11", userGets)
	}
	userPuts := testing.AllocsPerRun(100, func() {
		if _, err := rc.Put(ctx, "k", forkbase.String("steady"), forkbase.WithUser("alice")); err != nil {
			t.Fatal(err)
		}
	})
	if userPuts != 15 {
		t.Fatalf("remote Put round trip WithUser: %.0f allocs/op, want exactly 15", userPuts)
	}
}

// TestRemoteGetBytes pins the bytes a small remote Get allocates, both
// ends together, under half of 1.45 KB. The client reads each response
// into a buffer of the frame's own size; a fresh 1 KiB read buffer per
// response would cost most of that budget on its own.
func TestRemoteGetBytes(t *testing.T) {
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
	get := func() {
		if _, err := rc.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		get()
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 725 {
		t.Fatalf("remote Get allocates %d bytes, want under 725 (half of 1.45 KB)", per)
	}
}

// TestEmbeddedGetPutAllocs pins the embedded Get and Put — the path
// every benchmark workload reaches the engine through — at exactly
// their allocation counts: the policy layer (policy.go) must not pay
// for its tidiness with a closure or an escaping option set per call,
// and a call with no options resolves them without allocating.
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
	if gets != 2 {
		t.Fatalf("embedded Get: %.0f allocs/op, want exactly 2", gets)
	}
	v := forkbase.String("steady")
	puts := testing.AllocsPerRun(200, func() {
		if _, err := db.Put(ctx, "k", v); err != nil {
			t.Fatal(err)
		}
	})
	if puts != 10 {
		t.Fatalf("embedded Put: %.0f allocs/op, want exactly 10", puts)
	}
	// A key of more than one byte costs the same: the branch table of
	// an existing key is found without copying the key (a one-byte
	// string is interned by the runtime, so "k" never showed the copy).
	longPuts := testing.AllocsPerRun(200, func() {
		if _, err := db.Put(ctx, "key-00000001", v); err != nil {
			t.Fatal(err)
		}
	})
	if longPuts != 10 {
		t.Fatalf("embedded Put of a 12-byte key: %.0f allocs/op, want exactly 10", longPuts)
	}
}

// TestRemotePutBurstDuplicateID: a put whose id is already in flight —
// here, held by the put ahead of it in the same run of Puts, whose
// answer waits for the run's end — is refused with ErrDuplicateRequest
// and writes nothing, exactly as on the slow path; the original and
// the put after it commit. A chunk Send, answered on the read loop, is
// refused the same way while its id is held by a request parked on a
// worker, and so is a lone Put, also answered there.
func TestRemotePutBurstDuplicateID(t *testing.T) {
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
	// A lone Put, answered on the read loop, is refused the same way.
	if err := wire.WriteFrame(c, 200, wire.OpPut, putPayload(t, "e", "ve")); err != nil {
		t.Fatal(err)
	}
	reqID, op, payload, err = wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 200 || op != wire.OpPut || len(payload) == 0 || payload[0] != 1 {
		t.Fatalf("a Put reusing an id in flight: id %d op %d answered first; want the Put's refusal", reqID, op)
	}
	if ep, err := wire.DecodeError(wire.NewDec(payload[1:])); err != nil || !errors.Is(ep.Err, forkbase.ErrDuplicateRequest) {
		t.Fatalf("a Put reusing an id in flight failed with %v (decode: %v); want ErrDuplicateRequest", ep.Err, err)
	}
	if _, err := db.Get(ctx, "e"); !errors.Is(err, forkbase.ErrKeyNotFound) {
		t.Fatalf("the refused Put wrote key e: %v", err)
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

// parkingStore parks the first chunk Put made after arm inside the
// store until release, holding the request that made it mid-commit.
type parkingStore struct {
	store.Store
	armed   atomic.Bool
	entered chan struct{}
	resume  chan struct{}
	once    sync.Once
}

func newParkingStore() *parkingStore {
	return &parkingStore{Store: store.NewMemStore(), entered: make(chan struct{}), resume: make(chan struct{})}
}

func (p *parkingStore) arm()     { p.armed.Store(true) }
func (p *parkingStore) release() { p.once.Do(func() { close(p.resume) }) }

func (p *parkingStore) Put(c *chunk.Chunk) (bool, error) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.resume
	}
	return p.Store.Put(c)
}

// parkedServer serves a DB over a parking store on a raw connection.
func parkedServer(t *testing.T) (*forkbase.DB, *parkingStore, net.Conn) {
	t.Helper()
	ps := newParkingStore()
	db := forkbase.NewDBOn(ps, postree.DefaultConfig())
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	t.Cleanup(ps.release) // before the server's Close, which waits for the read loop
	c := rawHello(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return db, ps, c
}

// readOK reads one response and returns its body, failing unless it
// answers (id, op) with success.
func readOK(t *testing.T, c net.Conn, id uint64, op uint8) *wire.Dec {
	t.Helper()
	reqID, gotOp, payload, err := wire.ReadFrame(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != id || gotOp != op || len(payload) == 0 || payload[0] != 0 {
		t.Fatalf("response id %d op %d (status %v); want id %d op %d succeeding", reqID, gotOp, payload[:min(1, len(payload))], id, op)
	}
	return wire.NewDec(payload[1:])
}

// TestRemoteInlinePutOrdersPipelinedGet: a lone small Put is answered
// on the read loop, so a Get pipelined behind it — sent while the put
// is still committing — is read only after the put returns and sees
// its version. On a worker the Get would overtake the parked put.
func TestRemoteInlinePutOrdersPipelinedGet(t *testing.T) {
	_, ps, c := parkedServer(t)
	ps.arm()
	if err := wire.WriteFrame(c, 10, wire.OpPut, putPayload(t, "k", "v1")); err != nil {
		t.Fatal(err)
	}
	<-ps.entered
	if err := wire.WriteFrame(c, 11, wire.OpGet, getPayload("k")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // room for a Get that overtakes
	ps.release()
	uid := readOK(t, c, 10, wire.OpPut).UID()
	o, err := wire.DecodeFObject(readOK(t, c, 11, wire.OpGet))
	if err != nil {
		t.Fatal(err)
	}
	if o.UID() != uid {
		t.Fatalf("the pipelined Get saw version %v, want the put's %v", o.UID(), uid)
	}
}

// TestRemoteLargePutTakesWorker: a Put whose payload reaches bigPayload
// (64 KiB) keeps the worker, so the read loop answers a Get sent while
// the put is parked mid-commit.
func TestRemoteLargePutTakesWorker(t *testing.T) {
	db, ps, c := parkedServer(t)
	ctx := context.Background()
	if _, err := db.Put(ctx, "other", forkbase.String("here")); err != nil {
		t.Fatal(err)
	}
	ps.arm()
	big := putPayload(t, "big", strings.Repeat("x", 64<<10))
	if err := wire.WriteFrame(c, 20, wire.OpPut, big); err != nil {
		t.Fatal(err)
	}
	<-ps.entered
	if err := wire.WriteFrame(c, 21, wire.OpGet, getPayload("other")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	readOK(t, c, 21, wire.OpGet) // times out if the put held the read loop
	ps.release()
	readOK(t, c, 20, wire.OpPut)
}

// metaSyncServer serves a file-backed DB that fsyncs its metadata
// journal on every flush, on a raw connection.
func metaSyncServer(t *testing.T) (*forkbase.DB, net.Conn) {
	t.Helper()
	db, err := forkbase.OpenPath(t.TempDir(), forkbase.WithMetaSync(true))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	c := rawHello(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return db, c
}

// putBurstFrames builds n Put frames, ids 1..n, of distinct keys named
// prefix-i.
func putBurstFrames(t *testing.T, prefix string, n int) []byte {
	t.Helper()
	var burst []byte
	for i := 0; i < n; i++ {
		burst = wire.AppendFrame(burst, uint64(1+i), wire.OpPut, putPayload(t, fmt.Sprintf("%s-%02d", prefix, i), "v"))
	}
	return burst
}

// TestRemotePutBurstOneFsync: a burst of 32 Puts written in one segment
// is one run on the server, and the run's head records reach the
// journal in one write with one fsync, behind one fsync of the chunk
// log.
func TestRemotePutBurstOneFsync(t *testing.T) {
	db, c := metaSyncServer(t)
	before, chunkLogBefore := journalFsyncs(db), chunkLogFsyncs(db)
	if _, err := c.Write(putBurstFrames(t, "f", 32)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, payload, err := wire.ReadFrame(c, 0); err != nil || len(payload) == 0 || payload[0] != 0 {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	if got := journalFsyncs(db) - before; got != 1 {
		t.Fatalf("a burst of 32 Puts cost %d journal fsyncs, want 1", got)
	}
	if got := chunkLogFsyncs(db) - chunkLogBefore; got != 1 {
		t.Fatalf("a burst of 32 Puts cost %d chunk-log fsyncs, want 1", got)
	}
}

// TestRemotePutBurstAnswersAfterBarrier parks the journal's write-ahead
// barrier while the server ends a run of Puts: no answer of the run
// may leave before the barrier returns and the records are written —
// not even when a worker answers another request of the connection
// meanwhile, which flushes whatever the frame writer holds — nor may
// the answer of a Track pipelined behind the run, which reads a head
// of it. Every one leaves after.
func TestRemotePutBurstAnswersAfterBarrier(t *testing.T) {
	db, c := metaSyncServer(t)
	gcEntered, gcResume := make(chan struct{}), make(chan struct{})
	entered, resume := make(chan struct{}), make(chan struct{})
	var gcOnce, resumeOnce sync.Once
	gcRelease := func() { gcOnce.Do(func() { close(gcResume) }) }
	release := func() { resumeOnce.Do(func() { close(resume) }) }
	t.Cleanup(gcRelease) // before the server's Close, which waits for the collection
	t.Cleanup(release)   // and for the read loop
	db.SetRootsHookForTest(func() {
		db.SetRootsHookForTest(nil)
		close(gcEntered)
		<-gcResume
	})
	var gc wire.Enc
	wire.EncodeCallOptions(&gc, wire.CallOptions{})
	if err := wire.WriteFrame(c, 200, wire.OpGC, gc.Bytes()); err != nil {
		t.Fatal(err)
	}
	<-gcEntered
	var armed atomic.Bool
	armed.Store(true)
	db.WrapJournalBarrierForTest(func(barrier func() error) func() error {
		return func() error {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-resume
			}
			return barrier()
		}
	})
	const n = 8
	var track wire.Enc
	wire.EncodeCallOptions(&track, wire.CallOptions{})
	track.Str("p-00")
	track.I64(0)
	track.I64(0)
	burst := wire.AppendFrame(putBurstFrames(t, "p", n), 100, wire.OpTrack, track.Bytes())
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	<-entered
	type answer struct {
		id  uint64
		err error
	}
	answers := make(chan answer, n+2)
	go func() {
		for i := 0; i < n+2; i++ {
			reqID, _, payload, err := wire.ReadFrame(c, 0)
			if err == nil && (len(payload) == 0 || payload[0] != 0) {
				err = fmt.Errorf("request failed")
			}
			answers <- answer{reqID, err}
		}
	}()
	// The collection's answer leaves while the barrier is parked, and
	// nothing with it.
	gcRelease()
	if a := <-answers; a.id != 200 || a.err != nil {
		t.Fatalf("while the barrier was parked, id %d answered (%v); want only the collection", a.id, a.err)
	}
	select {
	case a := <-answers:
		t.Fatalf("id %d answered while its scope's barrier was parked (%v)", a.id, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	for i := 0; i <= n; i++ {
		if a := <-answers; a.err != nil {
			t.Fatalf("id %d: %v", a.id, a.err)
		}
	}
}

// TestRemotePutBurstFailedEnd: when the journal write that ends a run
// of Puts fails, every Put of the run fails with that error and with
// the uid its head moved to — the head moved, its record may not be
// durable — and the connection goes on serving.
func TestRemotePutBurstFailedEnd(t *testing.T) {
	db, c := metaSyncServer(t)
	var armed atomic.Bool
	armed.Store(true)
	db.WrapJournalBarrierForTest(func(barrier func() error) func() error {
		return func() error {
			if armed.CompareAndSwap(true, false) {
				return errors.New("barrier refused")
			}
			return barrier()
		}
	})
	const n = 8
	if _, err := c.Write(putBurstFrames(t, "e", n)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		reqID, _, payload, err := wire.ReadFrame(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) == 0 || payload[0] != 1 {
			t.Fatalf("put id %d succeeded although its journal write failed", reqID)
		}
		ep, err := wire.DecodeError(wire.NewDec(payload[1:]))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ep.Err.Error(), "barrier refused") {
			t.Fatalf("put id %d failed with %v, want the journal's error", reqID, ep.Err)
		}
		key := fmt.Sprintf("e-%02d", reqID-1)
		o, err := db.Get(ctx, key)
		if err != nil || ep.UID.IsNil() || o.UID() != ep.UID {
			t.Fatalf("put id %d reported uid %v; the head of %s: %v", reqID, ep.UID, key, err)
		}
	}
	if err := wire.WriteFrame(c, 100, wire.OpPut, putPayload(t, "after", "v")); err != nil {
		t.Fatal(err)
	}
	readOK(t, c, 100, wire.OpPut)
}

// TestRemoteOptionAllocs pins what a call option costs a remote
// metadata op, both ends together. The server hands a local DB the
// options it decoded as they are, with no option list packed and
// folded again, and the client folds its options by value on its own
// stack, so a user costs a call nothing: the server decodes the user
// once per connection and reuses the string while requests keep naming
// it.
func TestRemoteOptionAllocs(t *testing.T) {
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
	for _, tc := range []struct {
		name            string
		opts            []forkbase.Option
		lists, forkRems float64
	}{
		{"without a user", nil, 7, 14},
		{"WithUser", []forkbase.Option{forkbase.WithUser("alice")}, 7, 14},
	} {
		lists := testing.AllocsPerRun(100, func() {
			if _, err := rc.ListBranches(ctx, "k", tc.opts...); err != nil {
				t.Fatal(err)
			}
		})
		forkRems := testing.AllocsPerRun(100, func() {
			if err := rc.Fork(ctx, "k", "b", tc.opts...); err != nil {
				t.Fatal(err)
			}
			if err := rc.RemoveBranch(ctx, "k", "b", tc.opts...); err != nil {
				t.Fatal(err)
			}
		})
		if lists != tc.lists {
			t.Errorf("remote ListBranches %s: %.0f allocs/op, want exactly %.0f", tc.name, lists, tc.lists)
		}
		if forkRems != tc.forkRems {
			t.Errorf("remote Fork + RemoveBranch %s: %.0f allocs/op, want exactly %.0f", tc.name, forkRems, tc.forkRems)
		}
	}
}
